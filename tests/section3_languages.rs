//! §3 (Graph Pattern Matching Today): the paper renders the Figure 4
//! query in SPARQL, Cypher, PGQL, and GSQL. These tests check that the
//! semantic devices each language uses are faithfully reproducible in
//! this implementation — endpoint-only property paths, PGQL's
//! `COUNT(e) = COUNT(DISTINCT e)` repeated-edge filter, PGQL-style
//! per-k selectors, and GSQL's default `ALL SHORTEST`.

use gpml_suite::core::eval::{evaluate, EvalOptions, MatchMode};
use gpml_suite::core::MatchSet;
use gpml_suite::datagen::fig1;
use gpml_suite::parser::parse;
use property_graph::PropertyGraph;

fn run_with(g: &PropertyGraph, query: &str, opts: &EvalOptions) -> MatchSet {
    let pattern = parse(query).unwrap_or_else(|e| panic!("{query}\n{e}"));
    evaluate(g, &pattern, opts).unwrap_or_else(|e| panic!("{query}\n{e}"))
}

fn run(g: &PropertyGraph, query: &str) -> MatchSet {
    run_with(g, query, &EvalOptions::default())
}

/// The Figure 4 fraud pattern, parameterized by selector.
fn fig4(selector: &str) -> String {
    format!(
        "MATCH (x:Account)-[:isLocatedIn]->(g:City)<-[:isLocatedIn]-(y:Account), \
         {selector} (x)-[e:Transfer]->+(y) \
         WHERE x.isBlocked='no' AND y.isBlocked='yes' AND g.name='Ankh-Morpork'"
    )
}

fn owner_pairs(g: &PropertyGraph, rs: &MatchSet) -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = rs
        .iter()
        .map(|r| {
            let owner = |v: &str| {
                let b = r.get(v).unwrap();
                let el = b.as_element().unwrap();
                g.property(el, "owner").to_string()
            };
            (owner("x"), owner("y"))
        })
        .collect();
    out.sort();
    out.dedup();
    out
}

#[test]
fn sparql_rendering_endpoint_semantics() {
    // SPARQL can only check path existence (§3): endpoint-only mode on
    // the Fig. 4 query yields the distinct (x, y) pairs.
    let g = fig1();
    let rs = run_with(
        &g,
        &fig4("ALL SHORTEST"),
        &EvalOptions {
            mode: MatchMode::EndpointOnly,
            ..EvalOptions::default()
        },
    );
    assert_eq!(
        owner_pairs(&g, &rs),
        vec![
            ("Aretha".to_owned(), "Jay".to_owned()),
            ("Dave".to_owned(), "Jay".to_owned()),
        ]
    );
    // One row per pair: the endpoint collapse leaves nothing else.
    assert_eq!(rs.len(), 2);
}

#[test]
fn cypher_rendering_with_path_variable() {
    // Cypher returns paths as first-class values; `p = (a)-[:Transfer*1..]->(b)`
    // maps to a path variable over `+` (here under ANY to stay finite).
    let g = fig1();
    let rs = run(
        &g,
        "MATCH (a:Account WHERE a.isBlocked='no')-[:isLocatedIn]->\
         (ct:City WHERE ct.name='Ankh-Morpork')<-[:isLocatedIn]-\
         (b:Account WHERE b.isBlocked='yes'), \
         ANY p = (a)-[:Transfer]->+(b)",
    );
    assert_eq!(rs.len(), 2);
    for r in rs.iter() {
        assert!(r.get("p").unwrap().as_path().is_some());
    }
}

#[test]
fn pgql_rendering_any_selector_and_group_aggregation() {
    // PGQL: MATCH ANY (x)-[e:Transfer]->+(y) with COUNT(e) as the path
    // length and LISTAGG-style group access.
    let g = fig1();
    let rs = run(&g, &fig4("ANY"));
    assert_eq!(owner_pairs(&g, &rs).len(), 2);
    // COUNT(e) computes the hop count per kept path.
    let rs = run(
        &g,
        "MATCH ANY (x WHERE x.owner='Dave')-[e:Transfer]->+\
         (y WHERE y.owner='Jay') WHERE COUNT(e) >= 1",
    );
    assert_eq!(rs.len(), 1);
}

#[test]
fn pgql_repeated_edge_filter_equals_trail() {
    // PGQL has no TRAIL keyword; the paper notes one can "filter out
    // paths with repeated edges using WHERE COUNT(e) = COUNT(DISTINCT e)".
    // On bounded quantifiers the two must coincide exactly.
    let g = fig1();
    let via_filter = run(
        &g,
        "MATCH p = (a WHERE a.owner='Dave')-[e:Transfer]->{1,6}\
         (b WHERE b.owner='Aretha') \
         WHERE COUNT(e) = COUNT(DISTINCT e)",
    );
    let via_trail = run(
        &g,
        "MATCH TRAIL p = (a WHERE a.owner='Dave')-[e:Transfer]->{1,6}\
         (b WHERE b.owner='Aretha')",
    );
    let paths = |rs: &MatchSet| {
        let mut v: Vec<String> = rs
            .iter()
            .map(|r| {
                r.get("p")
                    .unwrap()
                    .as_path()
                    .unwrap()
                    .display(&g)
                    .to_string()
            })
            .collect();
        v.sort();
        v
    };
    let a = paths(&via_filter);
    let b = paths(&via_trail);
    assert!(!a.is_empty());
    assert_eq!(a, b);
}

#[test]
fn pgql_top_k_shortest() {
    // PGQL's TOP k SHORTEST ≈ GPML's SHORTEST k.
    let g = fig1();
    let rs = run(
        &g,
        "MATCH SHORTEST 2 p = (a WHERE a.owner='Dave')-[t:Transfer]->*\
         (b WHERE b.owner='Aretha')",
    );
    assert_eq!(rs.len(), 2);
    let mut lens: Vec<usize> = rs
        .iter()
        .map(|r| r.get("p").unwrap().as_path().unwrap().len())
        .collect();
    lens.sort();
    assert_eq!(lens[0], 2, "the shortest trail has 2 hops");
    assert!(lens[1] >= 2);
}

#[test]
fn gsql_rendering_default_all_shortest() {
    // GSQL's default semantics is ALL SHORTEST with no upper bound on `+`
    // (§3): in GSQL mode the raw Fig. 4 query runs without a selector.
    let g = fig1();
    let implicit = run_with(
        &g,
        &fig4(""),
        &EvalOptions {
            mode: MatchMode::GsqlDefault,
            ..EvalOptions::default()
        },
    );
    let explicit = run(&g, &fig4("ALL SHORTEST"));
    assert_eq!(owner_pairs(&g, &implicit), owner_pairs(&g, &explicit));
    assert_eq!(implicit.len(), explicit.len());
    // One shortest path per fraudulent pair.
    assert_eq!(implicit.len(), 2);
}

#[test]
fn all_three_modes_agree_on_reachability() {
    // Whatever the semantics, the *pairs* of fraudulent owners coincide.
    let g = fig1();
    let gpml = run(&g, &fig4("ANY"));
    let sparql = run_with(
        &g,
        &fig4("ALL SHORTEST"),
        &EvalOptions {
            mode: MatchMode::EndpointOnly,
            ..EvalOptions::default()
        },
    );
    let gsql = run_with(
        &g,
        &fig4(""),
        &EvalOptions {
            mode: MatchMode::GsqlDefault,
            ..EvalOptions::default()
        },
    );
    let expected = vec![
        ("Aretha".to_owned(), "Jay".to_owned()),
        ("Dave".to_owned(), "Jay".to_owned()),
    ];
    assert_eq!(owner_pairs(&g, &gpml), expected);
    assert_eq!(owner_pairs(&g, &sparql), expected);
    assert_eq!(owner_pairs(&g, &gsql), expected);
}
