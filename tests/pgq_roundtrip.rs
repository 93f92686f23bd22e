//! Figure 1 ↔ Figure 2: the graph and tabular representations of a
//! property graph are interconvertible, and GPML over the view equals
//! GPML over the native graph.

use gpml_suite::datagen::{fig1, transfer_network, TransferNetworkConfig};
use gpml_suite::pgq::{
    graph_table, materialize_tabulation, tabulate, Catalog, Database, EdgeTable, GraphView,
    PgqError, Table, VertexTable, ViewError,
};
use property_graph::{EdgeId, Endpoints, NodeId, PropertyGraph, Value};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The endpoint names of edge `e`: source and target of a directed
/// edge, and the two ends of an undirected one in name order (its pair
/// is stored in id order, and ids are not part of the graph).
fn endpoint_names(g: &PropertyGraph, e: EdgeId) -> [&str; 2] {
    let (s, d) = g.edge(e).endpoints.pair();
    let mut ends = [g.node(s).name.as_str(), g.node(d).name.as_str()];
    if !g.edge(e).endpoints.is_directed() {
        ends.sort_unstable();
    }
    ends
}

/// Structural graph equality up to element ids: same names, labels,
/// properties, and endpoint names.
fn assert_graphs_equal(a: &PropertyGraph, b: &PropertyGraph) {
    assert_eq!(a.node_count(), b.node_count());
    assert_eq!(a.edge_count(), b.edge_count());
    for n in a.nodes() {
        let name = &a.node(n).name;
        let m = b
            .node_by_name(name)
            .unwrap_or_else(|| panic!("missing node {name}"));
        assert_eq!(a.node(n).labels, b.node(m).labels, "{name}");
        assert_eq!(a.node(n).properties, b.node(m).properties, "{name}");
    }
    for e in a.edges() {
        let name = &a.edge(e).name;
        let f = b
            .edge_by_name(name)
            .unwrap_or_else(|| panic!("missing edge {name}"));
        assert_eq!(a.edge(e).labels, b.edge(f).labels, "{name}");
        assert_eq!(a.edge(e).properties, b.edge(f).properties, "{name}");
        assert_eq!(
            a.edge(e).endpoints.is_directed(),
            b.edge(f).endpoints.is_directed(),
            "{name}"
        );
        assert_eq!(
            endpoint_names(a, e),
            endpoint_names(b, f),
            "{name} endpoints"
        );
    }
}

#[test]
fn fig1_roundtrips_through_figure2_tables() {
    let g = fig1();
    let db = tabulate(&g);
    // Figure 2 has nine relations: five node-label combinations
    // (Account, Phone, IP, Country, CityCountry) and four edge labels.
    assert_eq!(db.len(), 9);
    // Figure 2's named relations exist, including the label-combination
    // table CityCountry (c2 appears with both labels).
    assert!(db.table("Account").is_some());
    assert!(db.table("Transfer").is_some());
    assert!(db.table("signInWithIP").is_some());
    assert!(db.table("Country").is_some());
    assert!(db.table("CityCountry").is_some());
    assert!(db.table("City").is_none(), "City never appears alone");
    assert_eq!(db.table("Account").unwrap().len(), 6);
    assert_eq!(db.table("Transfer").unwrap().len(), 8);
    assert_eq!(db.table("CityCountry").unwrap().len(), 1);
    assert_eq!(db.table("Country").unwrap().len(), 1);

    let back = materialize_tabulation(&db).unwrap();
    assert_graphs_equal(&g, &back);
}

#[test]
fn random_graphs_roundtrip() {
    for seed in [1, 7, 42] {
        let g = transfer_network(TransferNetworkConfig {
            accounts: 25,
            transfers: 60,
            blocked_share: 0.2,
            seed,
        });
        let back = materialize_tabulation(&tabulate(&g)).unwrap();
        assert_graphs_equal(&g, &back);
    }
}

/// The label sets drawn graphs use: the empty set, sets whose
/// concatenations collide ({A, B} and {AB}, {Admin, Person} and
/// {AdminPerson}), and the names the tabulation gives unlabelled
/// tables. Nodes and edges draw from the same list, so a node table and
/// an edge table can collide too.
const LABEL_SETS: &[&[&str]] = &[
    &[],
    &["A"],
    &["A", "B"],
    &["AB"],
    &["Admin", "Person"],
    &["AdminPerson"],
    &["Unlabeled"],
    &["UnlabeledEdge"],
    &["A", "Unlabeled"],
];

/// Property keys that spell the tabulation's own structural columns, or
/// the first name it falls back to when a property takes `ID`.
const STRUCTURAL_KEYS: &[&str] = &["ID", "SRC", "DST", "DIRECTED", "ID_1"];

/// A graph drawn from `seed`: 1–6 nodes and 0–10 edges, each with a
/// label set from [`LABEL_SETS`] and zero to three properties, the third
/// keyed by one of [`STRUCTURAL_KEYS`]; edges are directed or undirected
/// between random endpoints, so self-loops and parallel edges are common.
fn drawn_graph(seed: u64) -> PropertyGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let labels = |rng: &mut StdRng| LABEL_SETS[rng.gen_range(0..LABEL_SETS.len())].iter();
    let properties = |rng: &mut StdRng| {
        let mut props = Vec::new();
        if rng.gen_bool(0.5) {
            props.push(("k", Value::Int(rng.gen_range(0..3i64))));
        }
        if rng.gen_bool(0.3) {
            props.push(("name", Value::str(["x", "y"][rng.gen_range(0..2usize)])));
        }
        if rng.gen_bool(0.3) {
            let key = STRUCTURAL_KEYS[rng.gen_range(0..STRUCTURAL_KEYS.len())];
            props.push((key, Value::Int(rng.gen_range(0..3i64))));
        }
        props
    };
    let mut g = PropertyGraph::new();
    let nodes = rng.gen_range(1..=6u32);
    for i in 0..nodes {
        let (l, p) = (labels(&mut rng), properties(&mut rng));
        g.add_node(&format!("n{i}"), l.copied(), p);
    }
    for i in 0..rng.gen_range(0..=10usize) {
        let (s, d) = (
            NodeId(rng.gen_range(0..nodes)),
            NodeId(rng.gen_range(0..nodes)),
        );
        let endpoints = if rng.gen_bool(0.5) {
            Endpoints::directed(s, d)
        } else {
            Endpoints::undirected(s, d)
        };
        let (l, p) = (labels(&mut rng), properties(&mut rng));
        g.add_edge(&format!("e{i}"), endpoints, l.copied(), p);
    }
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The round trip is a law: every drawn graph comes back from its
    /// tabulation with the same elements, label sets, properties,
    /// endpoints and directions.
    #[test]
    fn drawn_graphs_roundtrip(seed in 0u64..1_000_000) {
        let g = drawn_graph(seed);
        let back = materialize_tabulation(&tabulate(&g)).unwrap();
        assert_graphs_equal(&g, &back);
    }
}

#[test]
fn figure2_excerpt_matches_paper_rows() {
    let g = fig1();
    let db = tabulate(&g);
    let transfers = db.table("Transfer").unwrap();
    // The paper's Figure 2 rows: t1 a1 a3 1/1/2020 8M, t2 a3 a2, t3 a2 a4.
    let row = |id: &str| {
        let r = transfers
            .rows
            .iter()
            .position(|r| r[transfers.column_index("ID").unwrap()] == Value::str(id))
            .unwrap();
        (
            transfers.get(r, "SRC").unwrap().clone(),
            transfers.get(r, "DST").unwrap().clone(),
            transfers.get(r, "amount").unwrap().clone(),
        )
    };
    assert_eq!(
        row("t1"),
        (Value::str("a1"), Value::str("a3"), Value::Int(8_000_000))
    );
    assert_eq!(
        row("t2"),
        (Value::str("a3"), Value::str("a2"), Value::Int(10_000_000))
    );
    assert_eq!(
        row("t3"),
        (Value::str("a2"), Value::str("a4"), Value::Int(10_000_000))
    );
    let sip = db.table("signInWithIP").unwrap();
    assert_eq!(sip.len(), 2);
}

/// Builds the Figure 2 database by hand and views it as a graph — the
/// SQL/PGQ direction the paper's introduction describes.
#[test]
fn create_property_graph_over_hand_written_tables() {
    let mut db = gpml_suite::pgq::Database::new();

    let mut account = Table::new("Account", ["ID", "owner", "isBlocked"]);
    for (id, owner, blocked) in [
        ("a1", "Scott", "no"),
        ("a2", "Aretha", "no"),
        ("a3", "Mike", "no"),
        ("a4", "Jay", "yes"),
        ("a5", "Charles", "no"),
        ("a6", "Dave", "no"),
    ] {
        account.push([Value::str(id), Value::str(owner), Value::str(blocked)]);
    }
    db.insert(account);

    let mut transfer = Table::new("Transfer", ["ID", "A_ID1", "A_ID2", "date", "amount"]);
    for (id, s, d, date, m) in [
        ("t1", "a1", "a3", "1/1/2020", 8),
        ("t2", "a3", "a2", "2/1/2020", 10),
        ("t3", "a2", "a4", "3/1/2020", 10),
        ("t4", "a4", "a6", "4/1/2020", 10),
        ("t5", "a6", "a3", "6/1/2020", 10),
        ("t6", "a6", "a5", "7/1/2020", 4),
        ("t7", "a3", "a5", "8/1/2020", 6),
        ("t8", "a5", "a1", "9/1/2020", 9),
    ] {
        transfer.push([
            Value::str(id),
            Value::str(s),
            Value::str(d),
            Value::str(date),
            Value::Int(m * 1_000_000),
        ]);
    }
    db.insert(transfer);

    let mut cat = Catalog::new(db);
    cat.create_property_graph(
        GraphView::new("bank")
            .vertex(VertexTable::new("Account", "ID").properties(["owner", "isBlocked"]))
            .edge(
                EdgeTable::new("Transfer", "ID", "A_ID1", "A_ID2").properties(["date", "amount"]),
            ),
    )
    .unwrap();

    // The §5.1 TRAIL example works identically over the view.
    let t = cat
        .graph_table(
            "bank",
            "MATCH TRAIL p = (a WHERE a.owner='Dave')-[t:Transfer]->*\
             (b WHERE b.owner='Aretha') COLUMNS (p AS path, COUNT(t) AS hops)",
        )
        .unwrap();
    assert_eq!(t.len(), 3);
    let mut paths: Vec<String> = t.rows.iter().map(|r| r[0].to_string()).collect();
    paths.sort_by_key(|s| (s.len(), s.clone()));
    assert_eq!(
        paths,
        vec![
            "path(a6,t5,a3,t2,a2)",
            "path(a6,t6,a5,t8,a1,t1,a3,t2,a2)",
            "path(a6,t5,a3,t7,a5,t8,a1,t1,a3,t2,a2)",
        ]
    );
}

/// An edge key equal to a vertex key is a duplicate element name: the
/// view reports it instead of aborting the build.
#[test]
fn edge_key_clashing_with_a_vertex_key_is_a_view_error() {
    let mut db = Database::new();
    db.insert(Table::from_csv("Account", "ID,owner\n1,Scott\n2,Jay\n").unwrap());
    db.insert(Table::from_csv("Transfer", "ID,SRC,DST\n1,1,2\n").unwrap());
    let mut cat = Catalog::new(db);
    let err = cat
        .execute_ddl(
            "CREATE PROPERTY GRAPH bank \
             VERTEX TABLES (Account KEY (ID) PROPERTIES (owner)) \
             EDGE TABLES (Transfer KEY (ID) \
               SOURCE KEY (SRC) REFERENCES Account \
               DESTINATION KEY (DST) REFERENCES Account)",
        )
        .unwrap_err();
    assert_eq!(
        err,
        PgqError::View(ViewError::DuplicateKey {
            table: "Transfer".into(),
            key: "1".into()
        })
    );
    assert!(cat.graph("bank").is_none());
}

/// A tabulation whose edge table lacks a `DST` column is reported as a
/// missing column, not a panic.
#[test]
fn tabulation_without_an_endpoint_column_is_a_view_error() {
    let mut db = tabulate(&fig1());
    let transfer = db.table("Transfer").unwrap();
    let keep: Vec<usize> = (0..transfer.columns.len())
        .filter(|&i| transfer.columns[i] != "DST")
        .collect();
    let mut cut = Table::new(
        "Transfer",
        keep.iter().map(|&i| transfer.columns[i].clone()),
    );
    for row in &transfer.rows {
        cut.push(keep.iter().map(|&i| row[i].clone()));
    }
    db.insert(cut);
    assert_eq!(
        materialize_tabulation(&db).unwrap_err(),
        ViewError::MissingColumn {
            table: "Transfer".into(),
            column: "DST".into()
        }
    );
}

#[test]
fn graph_table_equals_native_evaluation() {
    // Figure 9: the same GPML processor serves both hosts — query results
    // over the materialized view equal results over the native graph.
    let g = fig1();
    let db = tabulate(&g);
    let view_graph = materialize_tabulation(&db).unwrap();
    for query in [
        "MATCH (x:Account)-[t:Transfer]->(y:Account) COLUMNS (x.owner AS a, y.owner AS b)",
        "MATCH (c:City|Country) COLUMNS (c.name AS n)",
        "MATCH ANY (a WHERE a.owner='Dave')-[e:Transfer]->+(b WHERE b.owner='Aretha') \
         COLUMNS (COUNT(e) AS hops)",
    ] {
        let native = graph_table(&g, query).unwrap();
        let viewed = graph_table(&view_graph, query).unwrap();
        let mut a = native.rows.clone();
        let mut b = viewed.rows.clone();
        a.sort();
        b.sort();
        assert_eq!(a, b, "{query}");
    }
}

/// Every table of a tabulation, by name, as CSV.
fn tabulation_text(db: &Database) -> String {
    db.tables()
        .map(|t| format!("== {}\n{}", t.name, t.to_csv()))
        .collect()
}

/// Where no two label sets spell the same name, `tabulate` names and
/// fills its tables exactly as Figure 2 does: the pinned texts are
/// Figure 1's and a 25-account transfer network's tabulations, captured
/// when tables were named by concatenated labels alone.
#[test]
fn tabulation_without_collisions_is_pinned() {
    let network = transfer_network(TransferNetworkConfig {
        accounts: 25,
        transfers: 60,
        blocked_share: 0.2,
        seed: 1,
    });
    assert_eq!(
        tabulation_text(&tabulate(&fig1())),
        include_str!("golden/tabulate_fig1.txt")
    );
    assert_eq!(
        tabulation_text(&tabulate(&network)),
        include_str!("golden/tabulate_net25.txt")
    );
}
