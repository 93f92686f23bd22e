//! §4 (Graph Pattern Matching Language): every query of the section run
//! against the Figure 1 graph, with the outputs the paper states.

use gpml_suite::core::binding::BoundValue;
use gpml_suite::core::eval::{evaluate, EvalOptions};
use gpml_suite::core::{Error, MatchSet};
use gpml_suite::datagen::fig1;
use gpml_suite::parser::parse;
use property_graph::PropertyGraph;

fn run(g: &PropertyGraph, query: &str) -> MatchSet {
    let pattern = parse(query).unwrap_or_else(|e| panic!("{query}\n{e}"));
    evaluate(g, &pattern, &EvalOptions::default()).unwrap_or_else(|e| panic!("{query}\n{e}"))
}

fn run_err(g: &PropertyGraph, query: &str) -> Error {
    let pattern = parse(query).unwrap_or_else(|e| panic!("{query}\n{e}"));
    evaluate(g, &pattern, &EvalOptions::default()).unwrap_err()
}

/// Sorted external names a variable binds to across all rows.
fn names_of(g: &PropertyGraph, rs: &MatchSet, var: &str) -> Vec<String> {
    let mut out: Vec<String> = rs
        .iter()
        .filter_map(|r| r.get(var))
        .map(|b| b.display(g).to_string())
        .collect();
    out.sort();
    out
}

// ---------------------------------------------------------------------------
// §4.1 Accessing nodes and edges
// ---------------------------------------------------------------------------

#[test]
fn match_all_nodes() {
    let g = fig1();
    // "this query will return bindings that map x to accounts, cities,
    // phones, and IPs."
    let rs = run(&g, "MATCH (x)");
    assert_eq!(rs.len(), 14);
}

#[test]
fn match_accounts_by_label() {
    let g = fig1();
    assert_eq!(run(&g, "MATCH (x:Account)").len(), 6);
}

#[test]
fn label_disjunction_account_or_ip() {
    let g = fig1();
    assert_eq!(run(&g, "MATCH (x:Account|IP)").len(), 8);
}

#[test]
fn unlabeled_wildcard_negation_matches_nothing_in_fig1() {
    let g = fig1();
    // Every Figure 1 node carries a label, so (:!%) is empty — but it
    // must parse and evaluate.
    assert_eq!(run(&g, "MATCH (x:!%)").len(), 0);
}

#[test]
fn inline_versus_postfix_where_agree() {
    let g = fig1();
    let inline = run(&g, "MATCH (x:Account WHERE x.isBlocked='no')");
    let postfix = run(&g, "MATCH (x:Account) WHERE x.isBlocked='no'");
    assert_eq!(inline.len(), 5);
    assert_eq!(postfix.len(), 5);
    let mut a = names_of(&g, &inline, "x");
    let b = names_of(&g, &postfix, "x");
    a.sort();
    assert_eq!(a, b);
}

#[test]
fn all_directed_edges_and_all_undirected_edges() {
    let g = fig1();
    // -[e]-> binds every directed edge: 8 transfers + 6 isLocatedIn +
    // 2 signInWithIP.
    assert_eq!(run(&g, "MATCH -[e]->").len(), 16);
    // ~[e]~ binds undirected edges; as a standalone pattern each
    // undirected edge is found from both endpoints, and deduplication
    // keeps distinct walks (two orientations of the walk).
    assert_eq!(run(&g, "MATCH ~[e]~").len(), 12);
}

#[test]
fn transfers_over_five_million() {
    let g = fig1();
    let rs = run(&g, "MATCH -[e:Transfer WHERE e.amount>5M]->");
    // All but t6 (4M): §6.4.
    assert_eq!(rs.len(), 7);
    assert!(!names_of(&g, &rs, "e").contains(&"t6".to_owned()));
}

#[test]
fn figure3_node_edge_and_path_patterns() {
    let g = fig1();
    // (a) A node pattern: the one blocked account.
    assert_eq!(
        run(&g, "MATCH (x:Account WHERE x.isBlocked='yes')").len(),
        1
    );
    // (b) An edge pattern between two node patterns: the one 3/1/2020
    // transfer from an unblocked account into a blocked one.
    let rs = run(
        &g,
        "MATCH (x:Account WHERE x.isBlocked='no')\
         -[e:Transfer WHERE e.date='3/1/2020']->\
         (y:Account WHERE y.isBlocked='yes')",
    );
    assert_eq!(rs.len(), 1);
    // (c) A path pattern: transfer trails into the blocked account exist.
    let rs = run(
        &g,
        "MATCH TRAIL (x:Account WHERE x.isBlocked='no')-[:Transfer]->+\
         (y:Account WHERE y.isBlocked='yes')",
    );
    assert!(!rs.is_empty());
}

#[test]
fn figure5_edge_orientations_on_figure1() {
    let g = fig1();
    // Figure 1 has 16 directed and 6 undirected edges. A standalone
    // undirected edge is found from both endpoints, and every orientation
    // that admits both directions counts a directed edge twice.
    for (pattern, expected) in [
        ("MATCH (x)<-[e]-(y)", 16),
        ("MATCH (x)~[e]~(y)", 12),
        ("MATCH (x)-[e]->(y)", 16),
        ("MATCH (x)<~[e]~(y)", 28),
        ("MATCH (x)~[e]~>(y)", 28),
        ("MATCH (x)<-[e]->(y)", 32),
        ("MATCH (x)-[e]-(y)", 44),
    ] {
        assert_eq!(run(&g, pattern).len(), expected, "{pattern}");
    }
}

// ---------------------------------------------------------------------------
// §4.2 Path patterns by concatenation
// ---------------------------------------------------------------------------

#[test]
fn edge_with_endpoints() {
    let g = fig1();
    let rs = run(&g, "MATCH (x)-[e]->(y)");
    assert_eq!(rs.len(), 16);
}

#[test]
fn undirected_traversal_returns_each_edge_twice() {
    let g = fig1();
    // "If we do not specify direction and write (x)-[e]-(y), then each
    // edge will be returned twice, once for each direction."
    let rs = run(&g, "MATCH (x)-[e]-(y)");
    assert_eq!(rs.len(), 2 * 22);
}

#[test]
fn transfers_into_aretha() {
    let g = fig1();
    let rs = run(&g, "MATCH (y WHERE y.owner='Aretha')<-[e:Transfer]-(x)");
    assert_eq!(rs.len(), 1);
    assert_eq!(names_of(&g, &rs, "e"), vec!["t2"]);
    assert_eq!(names_of(&g, &rs, "x"), vec!["a3"]);
}

#[test]
fn two_hop_paths_include_the_paper_sample() {
    let g = fig1();
    let rs = run(&g, "MATCH (s)-[e]->(m)-[f]->(t)");
    // The paper exhibits one sample binding rather than a count; 22 is
    // the exhaustive number of directed two-hop walks in Figure 1.
    assert_eq!(rs.len(), 22);
    // The §4.2 sample binding s↦a1, e↦t1, m↦a3, f↦t2, t↦a2.
    let found = rs
        .iter()
        .any(|r| names(&g, r, &["s", "e", "m", "f", "t"]) == ["a1", "t1", "a3", "t2", "a2"]);
    assert!(found, "sample binding missing");
}

fn names(g: &PropertyGraph, r: &gpml_suite::core::binding::MatchRow, vars: &[&str]) -> Vec<String> {
    vars.iter()
        .map(|v| r.get(v).unwrap().display(g).to_string())
        .collect()
}

#[test]
fn blocked_phone_transfer_query_is_empty_on_fig1() {
    let g = fig1();
    // No phone in Figure 1 is blocked, so the §4.2 blocked-phone query
    // has no matches — but it exercises the mixed orientation chain.
    let rs = run(
        &g,
        "MATCH (p:Phone WHERE p.isBlocked='yes') ~[e:hasPhone]~ (a1:Account) \
         -[t:Transfer WHERE t.amount>1M]->(a2)",
    );
    assert!(rs.is_empty());
}

#[test]
fn same_phone_transfers_match_the_paper_exactly() {
    let g = fig1();
    // §4.2: "It thus returns two bindings:
    //   p↦p1, s↦a5, t↦t8, d↦a1
    //   p↦p2, s↦a3, t↦t2, d↦a2"
    let rs = run(
        &g,
        "MATCH (p:Phone)~[:hasPhone]~(s:Account)-[t:Transfer]->\
         (d:Account)~[:hasPhone]~(p)",
    );
    assert_eq!(rs.len(), 2);
    let mut rows: Vec<Vec<String>> = rs
        .iter()
        .map(|r| names(&g, r, &["p", "s", "t", "d"]))
        .collect();
    rows.sort();
    assert_eq!(
        rows,
        vec![vec!["p1", "a5", "t8", "a1"], vec!["p2", "a3", "t2", "a2"],]
    );
}

#[test]
fn transfer_triangles() {
    let g = fig1();
    // (s)-[:Transfer]->(s1)-[:Transfer]->(s2)-[:Transfer]->(s): the
    // a1→a3→a5→a1 triangle (t1, t7, t8), once per rotation.
    let rs = run(
        &g,
        "MATCH (s)-[:Transfer]->(s1)-[:Transfer]->(s2)-[:Transfer]->(s)",
    );
    assert_eq!(rs.len(), 3);
    for r in rs.iter() {
        let s = r.get("s").unwrap().display(&g).to_string();
        assert!(["a1", "a3", "a5"].contains(&s.as_str()));
    }
}

#[test]
fn path_variable_binds_triangle_paths() {
    let g = fig1();
    let rs = run(
        &g,
        "MATCH p = (s)-[:Transfer]->(s1)-[:Transfer]->(s2)-[:Transfer]->(s)",
    );
    assert_eq!(rs.len(), 3);
    let paths = names_of(&g, &rs, "p");
    assert!(paths.contains(&"path(a1,t1,a3,t7,a5,t8,a1)".to_owned()));
}

// ---------------------------------------------------------------------------
// §4.3 Graph patterns
// ---------------------------------------------------------------------------

#[test]
fn split_path_equals_joined_path() {
    let g = fig1();
    // The §4.3 two-pattern form of the blocked-phone query matches the
    // single-path §4.2 form (both empty here, but the join must work on
    // non-blocked phones as well).
    let two = run(
        &g,
        "MATCH (p:Phone)~[:hasPhone]~(s:Account), \
         (s)-[t:Transfer WHERE t.amount>1M]->()",
    );
    let one = run(
        &g,
        "MATCH (p:Phone)~[:hasPhone]~(s:Account)-[t:Transfer WHERE t.amount>1M]->()",
    );
    assert_eq!(two.len(), one.len());
    assert!(!two.is_empty());
}

#[test]
fn three_legged_star_pattern() {
    let g = fig1();
    // §4.3: three edges out of s — sign-in, large transfer, and a phone.
    let rs = run(
        &g,
        "MATCH (s:Account)-[:signInWithIP]-(), \
         (s)-[t:Transfer WHERE t.amount>1M]->(), \
         (s)~[:hasPhone]~(p:Phone)",
    );
    // a1 (sip1, t1, hp1) and a5 (sip2, t8, hp5).
    assert_eq!(names_of(&g, &rs, "s"), vec!["a1", "a5"]);
}

// ---------------------------------------------------------------------------
// §4.4 Quantifiers and group variables
// ---------------------------------------------------------------------------

#[test]
fn transfer_chains_of_length_two_to_five() {
    let g = fig1();
    let rs = run(&g, "MATCH (a:Account)-[:Transfer]->{2,5}(b:Account)");
    assert!(!rs.is_empty());
    // Every match is a chain of 2..=5 transfers — checked via a path var.
    let rs = run(&g, "MATCH p = (a:Account)-[:Transfer]->{2,5}(b:Account)");
    for r in rs.iter() {
        let p = r.get("p").unwrap().as_path().unwrap();
        assert!((2..=5).contains(&p.len()));
    }
}

#[test]
fn same_owner_parenthesized_quantifier() {
    let g = fig1();
    // No two distinct accounts share an owner in Figure 1, and no account
    // transfers to itself twice, so this is empty — but it exercises the
    // per-iteration WHERE (a.owner = b.owner).
    let rs = run(
        &g,
        "MATCH [(a:Account)-[:Transfer]->(b:Account) WHERE a.owner=b.owner]{2,5}",
    );
    assert!(rs.is_empty());
}

#[test]
fn group_variable_aggregation_sum_over_10m() {
    let g = fig1();
    let all = run(
        &g,
        "MATCH (a:Account) [()-[t:Transfer]->() WHERE t.amount>1M]{2,5} (b:Account)",
    );
    let filtered = run(
        &g,
        "MATCH (a:Account) [()-[t:Transfer]->() WHERE t.amount>1M]{2,5} (b:Account) \
         WHERE SUM(t.amount)>30M",
    );
    assert!(!filtered.is_empty());
    assert!(filtered.len() < all.len());
    // Each surviving row really sums above 10M.
    for r in filtered.iter() {
        let Some(BoundValue::EdgeGroup(es)) = r.get("t") else {
            panic!()
        };
        let sum: i64 = es
            .iter()
            .map(|e| match g.edge(*e).property("amount") {
                property_graph::Value::Int(v) => *v,
                _ => 0,
            })
            .sum();
        assert!(sum > 30_000_000, "sum {sum}");
    }
}

#[test]
fn singleton_reference_within_iteration_and_group_reference_outside() {
    let g = fig1();
    // COUNT(t) after the quantifier is a group reference; t.amount inside
    // is a singleton reference (§4.4).
    let rs = run(
        &g,
        "MATCH (a:Account) [()-[t:Transfer WHERE t.amount>1M]->()]{2,2} (b:Account) \
         WHERE COUNT(t) = 2",
    );
    assert!(!rs.is_empty());
}

// ---------------------------------------------------------------------------
// §4.5 Union and multiset alternation
// ---------------------------------------------------------------------------

#[test]
fn union_two_results_alternation_three() {
    let g = fig1();
    // "the first operand produces two results c↦c1 and c↦c2 and the
    // second operand produces the single result c↦c2" — union dedups to
    // 2, alternation keeps 3.
    let union = run(&g, "MATCH (c:City) | (c:Country)");
    assert_eq!(union.len(), 2);
    // NB: in Figure 1, c1 and c2 are Countries and c2 is also a City.
    let alt = run(&g, "MATCH (c:City) |+| (c:Country)");
    assert_eq!(alt.len(), 3);
    let mut alt_names = names_of(&g, &alt, "c");
    alt_names.sort();
    assert_eq!(alt_names, vec!["c1", "c2", "c2"]);
}

#[test]
fn overlapping_quantifier_union_equals_merged() {
    let g = fig1();
    let union = run(&g, "MATCH p = ->{1,3} | ->{2,4}");
    let merged = run(&g, "MATCH p = ->{1,4}");
    let a = names_of(&g, &union, "p");
    let b = names_of(&g, &merged, "p");
    assert_eq!(a, b);
}

// ---------------------------------------------------------------------------
// §4.6 Conditional variables
// ---------------------------------------------------------------------------

#[test]
fn conditional_join_is_rejected() {
    let g = fig1();
    let err = run_err(&g, "MATCH [(x)->(y)] | [(x)->(z)], (y)->(w)");
    assert!(matches!(err, Error::ConditionalJoin { .. }), "{err}");
}

#[test]
fn union_of_blocked_targets() {
    let g = fig1();
    let rs = run(
        &g,
        "MATCH [(x:Account)-[:Transfer]->(y:Account WHERE y.isBlocked='yes')] | \
         [(x:Account)-[:Transfer]->()-[:hasPhone]-(p WHERE p.isBlocked='yes')]",
    );
    // Only a2→a4 hits a blocked account; no phone is blocked.
    assert_eq!(names_of(&g, &rs, "x"), vec!["a2"]);
}

#[test]
fn question_mark_with_three_valued_where() {
    let g = fig1();
    // §4.6: if the optional part is unmatched, p.isBlocked='yes' is
    // unknown, so y must be blocked.
    let rs = run(
        &g,
        "MATCH (x:Account)-[:Transfer]->(y:Account) [~[:hasPhone]~(p)]? \
         WHERE y.isBlocked='yes' OR p.isBlocked='yes'",
    );
    // Transfers into a4 (blocked): t3 from a2. With and without the
    // optional phone hop (a4 has phone p3): two rows, both x=a2.
    assert!(!rs.is_empty());
    for r in rs.iter() {
        assert_eq!(r.get("x").unwrap().display(&g).to_string(), "a2");
        assert_eq!(r.get("y").unwrap().display(&g).to_string(), "a4");
    }
}

// ---------------------------------------------------------------------------
// §4.7 Graphical predicates
// ---------------------------------------------------------------------------

#[test]
fn is_directed_distinguishes_transfer_from_hasphone() {
    let g = fig1();
    let rs = run(&g, "MATCH (x)-[e]-(y) WHERE e IS DIRECTED");
    assert_eq!(rs.len(), 2 * 16);
    let rs = run(&g, "MATCH (x)-[e]-(y) WHERE NOT e IS DIRECTED");
    assert_eq!(rs.len(), 2 * 6);
}

#[test]
fn source_and_destination_predicates() {
    let g = fig1();
    // Undirected traversal of t1, pinning x to the source.
    let rs = run(&g, "MATCH (x)-[e:Transfer]-(y) WHERE x IS SOURCE OF e");
    assert_eq!(rs.len(), 8);
    let rs = run(
        &g,
        "MATCH (x)-[e:Transfer]-(y) \
         WHERE x IS SOURCE OF e AND y IS DESTINATION OF e",
    );
    assert_eq!(rs.len(), 8);
}

#[test]
fn same_and_all_different() {
    let g = fig1();
    // The triangle with ALL_DIFFERENT: all three rotations keep distinct
    // corners.
    let rs = run(
        &g,
        "MATCH (s)-[:Transfer]->(s1)-[:Transfer]->(s2)-[:Transfer]->(s) \
         WHERE ALL_DIFFERENT(s, s1, s2)",
    );
    assert_eq!(rs.len(), 3);
    // SAME(s, s1) never holds (no transfer self-loop).
    let rs = run(&g, "MATCH (s)-[:Transfer]->(s1) WHERE SAME(s, s1)");
    assert!(rs.is_empty());
}
