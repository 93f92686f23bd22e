//! `CREATE PROPERTY GRAPH`: graph views over a tabular schema (§1, §2).
//!
//! SQL/PGQ defines how to view SQL tables as a property graph: vertex
//! tables contribute one node per row, edge tables one edge per row, with
//! key columns identifying elements and foreign-key columns referencing
//! the endpoint vertex tables. [`GraphView::materialize`] instantiates the
//! view over a [`Database`]; [`tabulate`] goes the other way, producing
//! the Figure 2 representation (one table per label set, the set
//! recorded beside the table), and [`view_of_tabulation`] is the view
//! that reads such an export back, so the round trip `graph → tables →
//! view → graph` is lossless.

use std::collections::{BTreeMap, BTreeSet};

use property_graph::{ElementId, Endpoints, PropertyGraph, Value};

use crate::table::{Database, Structure, Table};

/// Error raised when a view does not fit its database.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ViewError {
    MissingTable(String),
    MissingColumn { table: String, column: String },
    DanglingReference { table: String, key: String },
    DuplicateKey { table: String, key: String },
}

impl std::fmt::Display for ViewError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ViewError::MissingTable(t) => write!(f, "view references missing table {t}"),
            ViewError::MissingColumn { table, column } => {
                write!(f, "table {table} lacks column {column}")
            }
            ViewError::DanglingReference { table, key } => {
                write!(f, "edge table {table} references unknown vertex key {key}")
            }
            ViewError::DuplicateKey { table, key } => {
                write!(f, "duplicate element key {key} in table {table}")
            }
        }
    }
}

impl std::error::Error for ViewError {}

/// A vertex-table clause of `CREATE PROPERTY GRAPH`.
#[derive(Clone, Debug)]
pub struct VertexTable {
    pub table: String,
    pub key: String,
    pub labels: Vec<String>,
    pub properties: Vec<String>,
}

impl VertexTable {
    /// A vertex table keyed by `key`; by default it carries its own name
    /// as label and no properties.
    pub fn new(table: impl Into<String>, key: impl Into<String>) -> VertexTable {
        let table = table.into();
        VertexTable {
            labels: vec![table.clone()],
            table,
            key: key.into(),
            properties: Vec::new(),
        }
    }

    /// Replaces the label set.
    pub fn labels(mut self, labels: impl IntoIterator<Item = impl Into<String>>) -> Self {
        self.labels = labels.into_iter().map(Into::into).collect();
        self
    }

    /// Declares which columns become properties.
    pub fn properties(mut self, props: impl IntoIterator<Item = impl Into<String>>) -> Self {
        self.properties = props.into_iter().map(Into::into).collect();
        self
    }
}

/// An edge-table clause of `CREATE PROPERTY GRAPH`.
#[derive(Clone, Debug)]
pub struct EdgeTable {
    pub table: String,
    pub key: String,
    pub source_column: String,
    pub destination_column: String,
    pub labels: Vec<String>,
    pub properties: Vec<String>,
    /// SQL/PGQ edges may be undirected (the paper's `hasPhone`).
    pub directed: bool,
    /// A column holding each row's direction, in place of `directed`: a
    /// row whose value is `TRUE` is a directed edge, and any other value,
    /// or a table without the column, makes an undirected one. The
    /// [`tabulate`] export records direction this way.
    pub direction_column: Option<String>,
}

impl EdgeTable {
    /// An edge table keyed by `key` whose `source`/`destination` columns
    /// hold vertex keys.
    pub fn new(
        table: impl Into<String>,
        key: impl Into<String>,
        source: impl Into<String>,
        destination: impl Into<String>,
    ) -> EdgeTable {
        let table = table.into();
        EdgeTable {
            labels: vec![table.clone()],
            table,
            key: key.into(),
            source_column: source.into(),
            destination_column: destination.into(),
            properties: Vec::new(),
            directed: true,
            direction_column: None,
        }
    }

    /// Replaces the label set.
    pub fn labels(mut self, labels: impl IntoIterator<Item = impl Into<String>>) -> Self {
        self.labels = labels.into_iter().map(Into::into).collect();
        self
    }

    /// Declares which columns become properties.
    pub fn properties(mut self, props: impl IntoIterator<Item = impl Into<String>>) -> Self {
        self.properties = props.into_iter().map(Into::into).collect();
        self
    }

    /// Marks the edges as undirected.
    pub fn undirected(mut self) -> Self {
        self.directed = false;
        self
    }

    /// Reads each row's direction from `column` (see
    /// [`EdgeTable::direction_column`]).
    pub fn direction_from(mut self, column: impl Into<String>) -> Self {
        self.direction_column = Some(column.into());
        self
    }
}

/// A property-graph view definition (the catalog object created by
/// `CREATE PROPERTY GRAPH`).
#[derive(Clone, Debug, Default)]
pub struct GraphView {
    pub name: String,
    pub vertices: Vec<VertexTable>,
    pub edges: Vec<EdgeTable>,
}

impl GraphView {
    /// An empty view named `name`.
    pub fn new(name: impl Into<String>) -> GraphView {
        GraphView {
            name: name.into(),
            ..Default::default()
        }
    }

    /// Adds a vertex table.
    pub fn vertex(mut self, v: VertexTable) -> Self {
        self.vertices.push(v);
        self
    }

    /// Adds an edge table.
    pub fn edge(mut self, e: EdgeTable) -> Self {
        self.edges.push(e);
        self
    }

    /// Instantiates the view over `db`, producing a property graph whose
    /// element names are the key values.
    pub fn materialize(&self, db: &Database) -> Result<PropertyGraph, ViewError> {
        let mut g = PropertyGraph::new();

        for v in &self.vertices {
            let table = table(db, &v.table)?;
            let key_col = column(table, &v.key)?;
            let prop_cols = columns(table, &v.properties)?;
            for row in &table.rows {
                let key = row[key_col].to_string();
                g.try_add_node(&key, v.labels.iter().cloned(), properties(&prop_cols, row))
                    .map_err(|_| duplicate(&v.table, &key))?;
            }
        }

        for e in &self.edges {
            let table = table(db, &e.table)?;
            let key_col = column(table, &e.key)?;
            let src_col = column(table, &e.source_column)?;
            let dst_col = column(table, &e.destination_column)?;
            // `Some(None)`: the direction column is named but absent, so
            // no row reads `TRUE`.
            let direction_col = e.direction_column.as_deref().map(|c| table.column_index(c));
            let prop_cols = columns(table, &e.properties)?;
            for row in &table.rows {
                let key = row[key_col].to_string();
                let endpoint = |col: usize| {
                    let name = row[col].to_string();
                    g.node_by_name(&name)
                        .ok_or_else(|| ViewError::DanglingReference {
                            table: e.table.clone(),
                            key: name,
                        })
                };
                let (src, dst) = (endpoint(src_col)?, endpoint(dst_col)?);
                let directed = match direction_col {
                    Some(col) => col.is_some_and(|c| row[c] == Value::Bool(true)),
                    None => e.directed,
                };
                let endpoints = if directed {
                    Endpoints::directed(src, dst)
                } else {
                    Endpoints::undirected(src, dst)
                };
                g.try_add_edge(
                    &key,
                    endpoints,
                    e.labels.iter().cloned(),
                    properties(&prop_cols, row),
                )
                .map_err(|_| duplicate(&e.table, &key))?;
            }
        }
        Ok(g)
    }
}

/// The table `name` of `db`, or the view error naming it.
fn table<'a>(db: &'a Database, name: &str) -> Result<&'a Table, ViewError> {
    db.table(name)
        .ok_or_else(|| ViewError::MissingTable(name.to_owned()))
}

/// The indices of the property columns `names` in `t`.
fn columns(t: &Table, names: &[String]) -> Result<Vec<(String, usize)>, ViewError> {
    names
        .iter()
        .map(|p| column(t, p).map(|i| (p.clone(), i)))
        .collect()
}

/// The non-null properties of `row` under the property columns `cols`.
fn properties<'a>(
    cols: &'a [(String, usize)],
    row: &'a [Value],
) -> impl Iterator<Item = (String, Value)> + 'a {
    cols.iter()
        .filter(|(_, i)| !row[*i].is_null())
        .map(|(p, i)| (p.clone(), row[*i].clone()))
}

/// The error for an element key already taken by a node or edge: the
/// only way adding an element can fail once its endpoints resolved.
fn duplicate(table: &str, key: &str) -> ViewError {
    ViewError::DuplicateKey {
        table: table.to_owned(),
        key: key.to_owned(),
    }
}

/// Exports a property graph in the Figure 2 tabular representation: one
/// relation per *label set* occurring on nodes or edges, grouped by the
/// graph's own sets, with the set recorded in [`Table::labels`]. Node
/// tables have an `ID` column plus one column per property; edge tables
/// additionally have `SRC`, `DST` and `DIRECTED` columns. A structural
/// column whose name a property of its table already spells takes the
/// first of `ID_1`, `ID_2`, … (`SRC_1`, … likewise) that none spells;
/// the names chosen are recorded in [`Table::structure`]. A table is
/// named by concatenating its labels (the `CityCountry` table for node
/// `c2`), or `Unlabeled` / `UnlabeledEdge` for unlabelled elements. When
/// two sets spell the same name — {AB} and {A, B}, or a node and an edge
/// label — each of them takes the first `NAME_k` (k = 1, 2, …) that no
/// set spells and no earlier table took.
pub fn tabulate(g: &PropertyGraph) -> Database {
    let mut groups: BTreeMap<(bool, &BTreeSet<String>), Vec<ElementId>> = BTreeMap::new();
    let nodes = g.nodes().map(|n| (false, ElementId::from(n)));
    for (is_edge, el) in nodes.chain(g.edges().map(|e| (true, e.into()))) {
        groups.entry((is_edge, g.labels(el))).or_default().push(el);
    }
    let spell = |is_edge: bool, labels: &BTreeSet<String>| match (labels.is_empty(), is_edge) {
        (false, _) => labels.iter().map(String::as_str).collect(),
        (true, false) => "Unlabeled".to_owned(),
        (true, true) => "UnlabeledEdge".to_owned(),
    };
    let mut uses: BTreeMap<String, usize> = BTreeMap::new();
    for &(is_edge, labels) in groups.keys() {
        *uses.entry(spell(is_edge, labels)).or_default() += 1;
    }
    let mut db = Database::new();
    for ((is_edge, labels), elements) in groups {
        let name = spell(is_edge, labels);
        let name = if uses[&name] == 1 {
            name
        } else {
            let mut k = 1;
            while uses.contains_key(&format!("{name}_{k}")) {
                k += 1;
            }
            let free = format!("{name}_{k}");
            uses.insert(free.clone(), 1);
            free
        };
        let keys = |el| match el {
            ElementId::Node(n) => g.node(n).properties.keys(),
            ElementId::Edge(e) => g.edge(e).properties.keys(),
        };
        let props: BTreeSet<&String> = elements.iter().flat_map(|&el| keys(el)).collect();
        let free = |base: &str| {
            let taken = |name: &String| props.contains(&name);
            let mut name = base.to_owned();
            let mut k = 0;
            while taken(&name) {
                k += 1;
                name = format!("{base}_{k}");
            }
            name
        };
        let structure = Structure {
            id: free("ID"),
            edge: is_edge.then(|| ["SRC", "DST", "DIRECTED"].map(free)),
        };
        let mut columns = vec![structure.id.as_str()];
        columns.extend(structure.edge.iter().flatten().map(String::as_str));
        columns.extend(props.iter().map(|p| p.as_str()));
        let mut table = Table::new(name, columns);
        for el in elements {
            let mut row = vec![Value::str(g.name(el))];
            if let ElementId::Edge(e) = el {
                let endpoints = g.edge(e).endpoints;
                let (s, d) = endpoints.pair();
                row.push(Value::str(g.name(s.into())));
                row.push(Value::str(g.name(d.into())));
                row.push(Value::Bool(endpoints.is_directed()));
            }
            row.extend(props.iter().map(|p| g.property(el, p).clone()));
            table.push(row);
        }
        table.labels = Some(labels.iter().cloned().collect());
        table.structure = Some(structure);
        db.insert(table);
    }
    db
}

/// The view that reads a [`tabulate`] export back — the inverse
/// direction, used to show the Figure 1 ↔ Figure 2 correspondence. Each
/// table's structural columns are the ones recorded in
/// [`Table::structure`]: an edge table is keyed by its `ID` column
/// between its `SRC` and `DST` columns, its direction read per row from
/// `DIRECTED`, and a vertex table is keyed by its `ID` column. A table
/// without a record is read with those fixed names, as an edge table
/// when it has a `SRC` column. Every other column is a property, and
/// each table's label set is read from the recorded set
/// ([`Table::labels`]); a table without one is labelled by its name.
pub fn view_of_tabulation(db: &Database) -> GraphView {
    let mut view = GraphView::new("tabulated");
    for t in db.tables() {
        let labels = (t.labels.clone()).unwrap_or_else(|| vec![t.name.clone()]);
        let structure = t.structure.clone().unwrap_or_else(|| Structure {
            id: "ID".to_owned(),
            edge: t
                .column_index("SRC")
                .map(|_| ["SRC", "DST", "DIRECTED"].map(str::to_owned)),
        });
        let structural =
            |c: &&String| **c == structure.id || structure.edge.iter().flatten().any(|s| s == *c);
        let props = t.columns.iter().filter(|c| !structural(c));
        view = match &structure.edge {
            Some([src, dst, directed]) => view.edge(
                EdgeTable::new(&t.name, &structure.id, src, dst)
                    .labels(labels)
                    .properties(props)
                    .direction_from(directed),
            ),
            None => view.vertex(
                VertexTable::new(&t.name, &structure.id)
                    .labels(labels)
                    .properties(props),
            ),
        };
    }
    view
}

/// Materializes a [`tabulate`] export back into a property graph through
/// [`view_of_tabulation`].
pub fn materialize_tabulation(db: &Database) -> Result<PropertyGraph, ViewError> {
    view_of_tabulation(db).materialize(db)
}

/// The index of `name` in `t`, or the view error naming the column.
fn column(t: &Table, name: &str) -> Result<usize, ViewError> {
    t.column_index(name)
        .ok_or_else(|| ViewError::MissingColumn {
            table: t.name.clone(),
            column: name.to_owned(),
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A miniature Figure 2 database: Account and Transfer excerpts.
    fn mini_db() -> Database {
        let mut db = Database::new();
        let mut accounts = Table::new("Account", ["ID", "owner", "isBlocked"]);
        accounts.push([Value::str("a1"), Value::str("Scott"), Value::str("no")]);
        accounts.push([Value::str("a3"), Value::str("Mike"), Value::str("no")]);
        db.insert(accounts);
        let mut transfers = Table::new("Transfer", ["ID", "A_ID1", "A_ID2", "date", "amount"]);
        transfers.push([
            Value::str("t1"),
            Value::str("a1"),
            Value::str("a3"),
            Value::str("1/1/2020"),
            Value::Int(8_000_000),
        ]);
        db.insert(transfers);
        db
    }

    fn mini_view() -> GraphView {
        GraphView::new("bank")
            .vertex(VertexTable::new("Account", "ID").properties(["owner", "isBlocked"]))
            .edge(EdgeTable::new("Transfer", "ID", "A_ID1", "A_ID2").properties(["date", "amount"]))
    }

    #[test]
    fn materialize_builds_graph_from_tables() {
        let g = mini_view().materialize(&mini_db()).unwrap();
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_count(), 1);
        let a1 = g.node_by_name("a1").unwrap();
        assert!(g.node(a1).has_label("Account"));
        assert_eq!(g.node(a1).property("owner"), &Value::str("Scott"));
        let t1 = g.edge_by_name("t1").unwrap();
        assert_eq!(g.edge(t1).property("amount"), &Value::Int(8_000_000));
        let (s, d) = g.edge(t1).endpoints.pair();
        assert_eq!(g.node(s).name, "a1");
        assert_eq!(g.node(d).name, "a3");
    }

    #[test]
    fn missing_table_and_column_errors() {
        let db = mini_db();
        let bad = GraphView::new("x").vertex(VertexTable::new("Ghost", "ID"));
        assert_eq!(
            bad.materialize(&db).err(),
            Some(ViewError::MissingTable("Ghost".into()))
        );
        let bad =
            GraphView::new("x").vertex(VertexTable::new("Account", "ID").properties(["ghost"]));
        assert!(matches!(
            bad.materialize(&db),
            Err(ViewError::MissingColumn { .. })
        ));
    }

    #[test]
    fn dangling_edge_reference_rejected() {
        let mut db = mini_db();
        let mut transfers = Table::new("Transfer", ["ID", "A_ID1", "A_ID2", "date", "amount"]);
        transfers.push([
            Value::str("t9"),
            Value::str("a1"),
            Value::str("nope"),
            Value::Null,
            Value::Null,
        ]);
        db.insert(transfers);
        assert!(matches!(
            mini_view().materialize(&db),
            Err(ViewError::DanglingReference { .. })
        ));
    }

    #[test]
    fn duplicate_keys_rejected() {
        let mut db = mini_db();
        let mut accounts = Table::new("Account", ["ID", "owner", "isBlocked"]);
        accounts.push([Value::str("a1"), Value::str("Scott"), Value::str("no")]);
        accounts.push([Value::str("a1"), Value::str("Evil"), Value::str("no")]);
        db.insert(accounts);
        assert!(matches!(
            mini_view().materialize(&db),
            Err(ViewError::DuplicateKey { .. })
        ));
    }

    #[test]
    fn undirected_edge_tables() {
        let mut db = mini_db();
        let mut hp = Table::new("hasPhone", ["ID", "A", "B"]);
        hp.push([Value::str("hp1"), Value::str("a1"), Value::str("a3")]);
        db.insert(hp);
        let view = mini_view().edge(EdgeTable::new("hasPhone", "ID", "A", "B").undirected());
        let g = view.materialize(&db).unwrap();
        let hp1 = g.edge_by_name("hp1").unwrap();
        assert!(!g.edge(hp1).endpoints.is_directed());
    }

    #[test]
    fn direction_column_is_read_per_row() {
        let mut db = mini_db();
        let mut t = Table::new("Transfer", ["ID", "A_ID1", "A_ID2", "DIRECTED"]);
        t.push([
            Value::str("t1"),
            Value::str("a1"),
            Value::str("a3"),
            Value::Bool(true),
        ]);
        t.push([
            Value::str("t2"),
            Value::str("a3"),
            Value::str("a1"),
            Value::Bool(false),
        ]);
        t.push([
            Value::str("t3"),
            Value::str("a3"),
            Value::str("a1"),
            Value::Null,
        ]);
        db.insert(t);
        let view = GraphView::new("bank")
            .vertex(VertexTable::new("Account", "ID"))
            .edge(EdgeTable::new("Transfer", "ID", "A_ID1", "A_ID2").direction_from("DIRECTED"));
        let g = view.materialize(&db).unwrap();
        let directed =
            |g: &PropertyGraph, e| g.edge(g.edge_by_name(e).unwrap()).endpoints.is_directed();
        assert!(directed(&g, "t1"));
        assert!(!directed(&g, "t2"));
        assert!(!directed(&g, "t3"));
        // A table without the column holds no `TRUE`: every edge is
        // undirected, whatever `directed` says.
        let view = GraphView::new("bank")
            .vertex(VertexTable::new("Account", "ID"))
            .edge(EdgeTable::new("Transfer", "ID", "A_ID1", "A_ID2").direction_from("ghost"));
        let g = view.materialize(&mini_db()).unwrap();
        assert!(!directed(&g, "t1"));
    }

    #[test]
    fn view_of_tabulation_recovers_vertex_tables() {
        let mut g = PropertyGraph::new();
        let a = g.add_node(
            "c2",
            ["City", "Country"],
            [("name", Value::str("Ankh-Morpork"))],
        );
        let b = g.add_node("a1", ["Account"], [("owner", Value::str("Scott"))]);
        g.add_edge("li1", Endpoints::directed(b, a), ["isLocatedIn"], []);
        let db = tabulate(&g);
        let view = view_of_tabulation(&db);
        // Vertex tables round-trip with their label combinations; edge
        // tables read their direction per row.
        let city = view
            .vertices
            .iter()
            .find(|v| v.table == "CityCountry")
            .expect("CityCountry vertex table");
        assert_eq!(city.labels, vec!["City", "Country"]);
        assert!(city.properties.contains(&"name".to_owned()));
        let [located] = &view.edges[..] else {
            panic!("one edge table: {:?}", view.edges);
        };
        assert_eq!(located.table, "isLocatedIn");
        assert_eq!(located.labels, vec!["isLocatedIn"]);
        assert_eq!(
            (
                located.source_column.as_str(),
                located.destination_column.as_str()
            ),
            ("SRC", "DST")
        );
        assert_eq!(located.direction_column.as_deref(), Some("DIRECTED"));
        assert!(located.properties.is_empty());
        let materialized = view.materialize(&db).unwrap();
        assert_eq!(materialized.node_count(), 2);
        assert_eq!(materialized.edge_count(), 1);
        let li1 = materialized.edge_by_name("li1").unwrap();
        assert!(materialized.edge(li1).endpoints.is_directed());
    }

    /// The labels of element `name` of `g`, in order.
    fn labels_of<'g>(g: &'g PropertyGraph, name: &str) -> Vec<&'g str> {
        let el = g.by_name(name).expect("element exists");
        g.labels(el).iter().map(String::as_str).collect()
    }

    #[test]
    fn multi_label_sets_round_trip() {
        let mut g = PropertyGraph::new();
        let u = g.add_node("u1", ["Admin", "Person"], [("name", Value::str("Ada"))]);
        let d = g.add_node("d1", ["Doc"], []);
        g.add_edge("w1", Endpoints::directed(u, d), ["Owns", "Wrote"], []);
        let back = materialize_tabulation(&tabulate(&g)).unwrap();
        assert_eq!(labels_of(&back, "u1"), ["Admin", "Person"]);
        assert_eq!(labels_of(&back, "d1"), ["Doc"]);
        assert_eq!(labels_of(&back, "w1"), ["Owns", "Wrote"]);
    }

    #[test]
    fn colliding_spellings_land_in_separate_tables() {
        let mut g = PropertyGraph::new();
        g.add_node("n1", ["A", "B"], []);
        g.add_node("n2", ["AB"], []);
        g.add_node("n3", ["C"], []);
        let db = tabulate(&g);
        assert_eq!(db.len(), 3);
        let back = materialize_tabulation(&db).unwrap();
        assert_eq!(labels_of(&back, "n1"), ["A", "B"]);
        assert_eq!(labels_of(&back, "n2"), ["AB"]);
        assert_eq!(labels_of(&back, "n3"), ["C"]);
        // Sets are ordered {A, B} < {AB} < {C}: the colliding pair takes
        // the first free suffixes in that order, the unique name stays.
        let tables: Vec<String> = db
            .tables()
            .map(|t| format!("{} {:?}", t.name, t.labels.as_deref().unwrap_or_default()))
            .collect();
        assert_eq!(
            tables,
            [r#"AB_1 ["A", "B"]"#, r#"AB_2 ["AB"]"#, r#"C ["C"]"#]
        );
    }

    #[test]
    fn properties_named_like_structural_columns_round_trip() {
        let mut g = PropertyGraph::new();
        let props = [("ID", Value::Int(7)), ("SRC", Value::str("nowhere"))];
        let a = g.add_node("a1", ["Account"], props);
        let b = g.add_node("a2", ["Account"], []);
        g.add_edge(
            "t1",
            Endpoints::directed(a, b),
            ["Transfer"],
            [("DST", Value::str("elsewhere"))],
        );
        let db = tabulate(&g);
        let account = db.table("Account").unwrap();
        assert_eq!(account.columns, ["ID_1", "ID", "SRC"]);
        let transfer = db.table("Transfer").unwrap();
        assert_eq!(transfer.columns, ["ID", "SRC", "DST_1", "DIRECTED", "DST"]);
        let back = materialize_tabulation(&db).unwrap();
        assert_eq!((back.node_count(), back.edge_count()), (2, 1));
        let a1 = back.node(back.node_by_name("a1").unwrap());
        assert_eq!(a1.property("ID"), &Value::Int(7));
        assert_eq!(a1.property("SRC"), &Value::str("nowhere"));
        let t1 = back.edge(back.edge_by_name("t1").unwrap());
        assert_eq!(t1.property("DST"), &Value::str("elsewhere"));
        assert_eq!(
            t1.endpoints.pair(),
            (
                back.node_by_name("a1").unwrap(),
                back.node_by_name("a2").unwrap()
            )
        );
    }

    #[test]
    fn a_table_without_a_recorded_set_is_labelled_by_its_name() {
        let mut db = Database::new();
        let mut t = Table::new("CityCountry", ["ID"]);
        t.push([Value::str("c1")]);
        db.insert(t);
        let g = materialize_tabulation(&db).unwrap();
        assert_eq!(labels_of(&g, "c1"), ["CityCountry"]);
    }

    #[test]
    fn null_properties_are_omitted() {
        let mut db = Database::new();
        let mut t = Table::new("Account", ["ID", "owner"]);
        t.push([Value::str("a1"), Value::Null]);
        db.insert(t);
        let view =
            GraphView::new("g").vertex(VertexTable::new("Account", "ID").properties(["owner"]));
        let g = view.materialize(&db).unwrap();
        let a1 = g.node_by_name("a1").unwrap();
        // Partial π: absent property reads back as Null.
        assert!(g.node(a1).property("owner").is_null());
        assert!(g.node(a1).properties.is_empty());
    }
}
