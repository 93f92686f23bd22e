//! Host-language integration: GQL sessions and SQL/PGQ catalogs driving
//! the same GPML processor (Figure 9), including result shaping, JSON
//! export, and graph projection.

use gpml_suite::core::eval::{EvalOptions, MatchMode};
use gpml_suite::core::Params;
use gpml_suite::datagen::{fig1, transfer_network, TransferNetworkConfig};
use gpml_suite::gql::{GqlValue, Session};
use gpml_suite::pgq::{graph_table, materialize_tabulation, prepare_graph_table, tabulate};
use property_graph::Value;

fn session() -> Session {
    let mut s = Session::new();
    s.register("bank", fig1());
    s
}

#[test]
fn order_by_unprojected_expression() {
    let s = session();
    // ORDER BY may use expressions that are not in the RETURN list.
    let r = s
        .execute(
            "bank",
            "MATCH (x:Account)-[t:Transfer]->(y) \
             RETURN x.owner AS o ORDER BY t.amount DESC, o ASC LIMIT 3",
        )
        .unwrap();
    // Highest amounts are the four 10M transfers (t2,t3,t4,t5) from
    // Mike, Aretha, Jay, Dave; the first three alphabetically-stable by
    // descending amount.
    assert_eq!(r.len(), 3);
    let owners: Vec<String> = r.rows.iter().map(|row| row[0].to_string()).collect();
    for o in &owners {
        assert!(
            ["Mike", "Aretha", "Jay", "Dave"].contains(&o.as_str()),
            "{o}"
        );
    }
}

#[test]
fn skip_and_limit_paginate() {
    let s = session();
    let all = s
        .execute("bank", "MATCH (x:Account) RETURN x.owner AS o ORDER BY o")
        .unwrap();
    let page1 = s
        .execute(
            "bank",
            "MATCH (x:Account) RETURN x.owner AS o ORDER BY o LIMIT 2",
        )
        .unwrap();
    let page2 = s
        .execute(
            "bank",
            "MATCH (x:Account) RETURN x.owner AS o ORDER BY o SKIP 2 LIMIT 2",
        )
        .unwrap();
    assert_eq!(all.len(), 6);
    assert_eq!(page1.len(), 2);
    assert_eq!(page2.len(), 2);
    assert_eq!(page1.rows[0], all.rows[0]);
    assert_eq!(page2.rows[0], all.rows[2]);
    // SKIP past the end is empty, not an error.
    let empty = s
        .execute("bank", "MATCH (x:Account) RETURN x.owner AS o SKIP 100")
        .unwrap();
    assert!(empty.is_empty());
}

#[test]
fn distinct_deduplicates_projections() {
    let s = session();
    // Each account has one location but several transfers; projecting the
    // location name repeats without DISTINCT.
    let plain = s
        .execute(
            "bank",
            "MATCH (x:Account)-[:isLocatedIn]->(c) RETURN c.name AS n",
        )
        .unwrap();
    let distinct = s
        .execute(
            "bank",
            "MATCH (x:Account)-[:isLocatedIn]->(c) RETURN DISTINCT c.name AS n",
        )
        .unwrap();
    assert_eq!(plain.len(), 6);
    assert_eq!(distinct.len(), 2);
}

#[test]
fn aggregates_in_return_items() {
    let s = session();
    let r = s
        .execute(
            "bank",
            "MATCH ANY (a WHERE a.owner='Dave')-[e:Transfer]->+\
             (b WHERE b.owner='Aretha') \
             RETURN COUNT(e) AS hops, SUM(e.amount) AS total, \
                    MIN(e.amount) AS lo, MAX(e.amount) AS hi, AVG(e.amount) AS mean",
        )
        .unwrap();
    assert_eq!(r.len(), 1);
    assert_eq!(r.get(0, "hops"), Some(&GqlValue::Scalar(Value::Int(2))));
    assert_eq!(
        r.get(0, "total"),
        Some(&GqlValue::Scalar(Value::Int(20_000_000)))
    );
    assert_eq!(
        r.get(0, "lo"),
        Some(&GqlValue::Scalar(Value::Int(10_000_000)))
    );
    assert_eq!(
        r.get(0, "hi"),
        Some(&GqlValue::Scalar(Value::Int(10_000_000)))
    );
    assert_eq!(
        r.get(0, "mean"),
        Some(&GqlValue::Scalar(Value::Float(10_000_000.0)))
    );
}

#[test]
fn json_round_trips_structure() {
    let s = session();
    let r = s
        .execute(
            "bank",
            "MATCH ANY p = (a WHERE a.owner='Dave')-[e:Transfer]->+\
             (b WHERE b.owner='Aretha') \
             RETURN a, e, p, COUNT(e) AS hops",
        )
        .unwrap();
    let json = r.to_json();
    assert!(json.starts_with('['));
    assert!(json.contains("\"a\":\"a6\""));
    assert!(json.contains("\"e\":[\"t5\",\"t2\"]"));
    assert!(json.contains("\"p\":\"path(a6,t5,a3,t2,a2)\""));
    assert!(json.contains("\"hops\":2"));
}

#[test]
fn session_modes_flow_through_options() {
    let mut s = Session::with_options(EvalOptions {
        mode: MatchMode::GsqlDefault,
        ..EvalOptions::default()
    });
    s.register("bank", fig1());
    // No selector, unbounded `+`: legal in GSQL mode.
    let r = s
        .execute(
            "bank",
            "MATCH (a WHERE a.owner='Dave')-[t:Transfer]->+(b WHERE b.owner='Aretha') \
             RETURN COUNT(t) AS hops",
        )
        .unwrap();
    assert_eq!(r.len(), 1);
    assert_eq!(r.get(0, "hops"), Some(&GqlValue::Scalar(Value::Int(2))));
}

#[test]
fn projection_of_one_transfer_binding() {
    // Figure 9's GQL side: a path binding is a first-class value that
    // projects to a graph — Jay's one outgoing transfer, t4 to a6.
    let s = session();
    let rows = s
        .match_bindings(
            "bank",
            "MATCH p = (a WHERE a.owner='Jay')-[t:Transfer]->(b)",
        )
        .unwrap();
    assert_eq!(rows.len(), 1);
    let sub = s.project_graph("bank", &rows[0]).unwrap();
    assert_eq!(sub.node_count(), 2);
    assert_eq!(sub.edge_count(), 1);
    assert!(sub.edge_by_name("t4").is_some());
}

#[test]
fn projection_of_multi_path_binding() {
    // §6.6: a binding over several path patterns projects to the union
    // subgraph.
    let s = session();
    let rows = s
        .match_bindings(
            "bank",
            "MATCH (s:Account WHERE s.owner='Scott')-[e1:Transfer]->(m), \
             (m)~[h:hasPhone]~(p:Phone)",
        )
        .unwrap();
    assert_eq!(rows.len(), 1);
    let sub = s.project_graph("bank", &rows[0]).unwrap();
    // Scott → Mike transfer + Mike ~ p2: nodes a1, a3, p2; edges t1, hp3.
    assert_eq!(sub.node_count(), 3);
    assert_eq!(sub.edge_count(), 2);
    assert!(sub.node_by_name("p2").is_some());
    assert!(sub.edge_by_name("hp3").is_some());
    assert!(sub.validate().is_ok());
}

#[test]
fn graph_table_on_scaled_network_matches_gql() {
    // The two hosts agree row-for-row on a non-toy graph.
    let g = transfer_network(TransferNetworkConfig {
        accounts: 40,
        transfers: 90,
        blocked_share: 0.25,
        seed: 99,
    });
    let table = graph_table(
        &g,
        "MATCH (x:Account WHERE x.isBlocked='no')-[t:Transfer]->\
         (y:Account WHERE y.isBlocked='yes') \
         COLUMNS (x.owner AS sender, y.owner AS receiver)",
    )
    .unwrap();
    let mut s = Session::new();
    s.register("net", g);
    let gql = s
        .execute(
            "net",
            "MATCH (x:Account WHERE x.isBlocked='no')-[t:Transfer]->\
             (y:Account WHERE y.isBlocked='yes') \
             RETURN x.owner AS sender, y.owner AS receiver",
        )
        .unwrap();
    assert_eq!(table.len(), gql.len());
    assert!(!table.is_empty());
}

#[test]
fn tabulation_then_graph_table_pipeline() {
    // Figure 9 end to end: native graph → tables → view → GRAPH_TABLE.
    let g = fig1();
    let db = tabulate(&g);
    let view = materialize_tabulation(&db).unwrap();
    let t = graph_table(
        &view,
        "MATCH TRAIL p = (a WHERE a.owner='Dave')-[t:Transfer]->*\
         (b WHERE b.owner='Aretha') COLUMNS (p AS path)",
    )
    .unwrap();
    assert_eq!(t.len(), 3);
}

#[test]
fn both_hosts_project_every_value_kind_alike() {
    // One pattern through GQL `RETURN` and SQL/PGQ `COLUMNS`: a scalar,
    // an element, a node group, an edge group, a path, an aggregate, a
    // parameter, and an unbound conditional variable (NULL). A GQL
    // scalar is the same cell in SQL/PGQ; anything else is its text.
    let pattern = "MATCH p = (a:Account WHERE a.owner = $owner) \
                   [(x:Account)-[e:Transfer]->(y:Account)]{1,2} (b:Account) \
                   [-[s:signInWithIP]->(ip:IP)]?";
    let items = "a.owner AS owner, b AS b, x AS xs, e AS es, p AS p, \
                 COUNT(e) AS hops, $tag AS tag, ip AS ip";
    let network = transfer_network(TransferNetworkConfig {
        accounts: 200,
        transfers: 600,
        blocked_share: 0.1,
        seed: 1,
    });
    for (graph, owner) in [(fig1(), "Dave"), (network, "owner7")] {
        let params = Params::new().with("owner", owner).with("tag", 7);
        let mut s = Session::new();
        s.register("g", graph);
        let gql = s
            .execute_with_params("g", &format!("{pattern} RETURN {items}"), &params)
            .unwrap();
        let pgq = prepare_graph_table(&format!("{pattern} COLUMNS ({items})"), s.options())
            .unwrap()
            .execute_with(s.graph("g").unwrap(), &params)
            .unwrap();
        let as_pgq: Vec<Vec<Value>> = gql
            .rows
            .iter()
            .map(|row| {
                row.iter()
                    .map(|cell| match cell {
                        GqlValue::Scalar(v) => v.clone(),
                        other => Value::str(other.to_string()),
                    })
                    .collect()
            })
            .collect();
        assert_eq!(pgq.columns, gql.columns);
        assert_eq!(pgq.rows, as_pgq, "{owner}");
        // Every kind of cell is exercised.
        let column = |name: &str| {
            let i = pgq.column_index(name).unwrap();
            gql.rows.iter().map(move |r| &r[i])
        };
        assert!(column("xs").all(|c| matches!(c, GqlValue::Group(_))));
        assert!(column("es").all(|c| matches!(c, GqlValue::Group(_))));
        assert!(column("p").all(|c| matches!(c, GqlValue::Path(_))));
        assert!(column("b").all(|c| matches!(c, GqlValue::Element(_))));
        assert!(
            column("ip").any(|c| c == &GqlValue::Scalar(Value::Null)),
            "{owner}"
        );
        assert!(column("tag").all(|c| c.as_int() == Some(7)));
        assert!(gql.len() > 1, "{owner}");
    }
}
