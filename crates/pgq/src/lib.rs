//! SQL/PGQ: property-graph views over a tabular SQL schema, and read-only
//! GPML queries against them (§1, §2 Figure 2, §6.6 Figure 9 of the
//! paper).
//!
//! The crate provides the three PGQ pieces the paper relies on:
//!
//! * [`table`] — a minimal in-memory relational substrate ([`Table`],
//!   [`Database`]);
//! * [`view`] — `CREATE PROPERTY GRAPH`: [`GraphView`] definitions built
//!   from [`VertexTable`]/[`EdgeTable`] clauses and materialized over a
//!   database. The Figure 1 ↔ Figure 2 round trip is one such view:
//!   [`tabulate`] exports a graph as Figure 2's tables, one per label
//!   set, each recording its set in [`Table::labels`], and
//!   [`view::view_of_tabulation`] is the view over them that
//!   [`materialize_tabulation`] materializes, its label sets read from
//!   the recorded sets;
//! * [`graph_table()`](graph_table::graph_table) — the `GRAPH_TABLE( ... MATCH ... COLUMNS ... )`
//!   operator producing a table from path bindings. It runs on the
//!   runtime GQL uses too: the body compiles to a core
//!   [`Statement`](gpml_core::plan::Statement) whose projection holds the
//!   `COLUMNS` items, the same statement type a GQL session caches.
//!
//! [`Catalog`] ties them together the way a SQL/PGQ session would: named
//! views over one database, queried by view name.

pub mod csv;
pub mod ddl;
pub mod graph_table;
pub mod table;
pub mod view;

pub use csv::CsvError;
pub use ddl::parse_ddl;
pub use graph_table::{graph_table, prepare_graph_table, PgqError, PreparedGraphTable};
pub use table::{Database, Structure, Table};
pub use view::{materialize_tabulation, tabulate, EdgeTable, GraphView, VertexTable, ViewError};

use std::collections::BTreeMap;

use property_graph::PropertyGraph;

/// A PGQ catalog: one database plus named property-graph views.
#[derive(Clone, Debug, Default)]
pub struct Catalog {
    db: Database,
    views: BTreeMap<String, GraphView>,
    materialized: BTreeMap<String, PropertyGraph>,
}

impl Catalog {
    /// A catalog over `db`.
    pub fn new(db: Database) -> Catalog {
        Catalog {
            db,
            ..Default::default()
        }
    }

    /// The underlying database.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// `CREATE PROPERTY GRAPH`: registers and eagerly materializes a view.
    pub fn create_property_graph(&mut self, view: GraphView) -> Result<(), ViewError> {
        let graph = view.materialize(&self.db)?;
        self.materialized.insert(view.name.clone(), graph);
        self.views.insert(view.name.clone(), view);
        Ok(())
    }

    /// Runs a `CREATE PROPERTY GRAPH` DDL statement against the catalog.
    pub fn execute_ddl(&mut self, ddl: &str) -> Result<(), PgqError> {
        let view = parse_ddl(ddl)?;
        self.create_property_graph(view).map_err(PgqError::View)
    }

    /// The materialized graph of a view.
    pub fn graph(&self, name: &str) -> Option<&PropertyGraph> {
        self.materialized.get(name)
    }

    /// `GRAPH_TABLE(name MATCH ... COLUMNS (...))`.
    pub fn graph_table(&self, name: &str, body: &str) -> Result<Table, PgqError> {
        let graph = self
            .graph(name)
            .ok_or_else(|| PgqError::Syntax(format!("unknown property graph {name}")))?;
        graph_table(graph, body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use property_graph::Value;

    fn bank_catalog() -> Catalog {
        let mut db = Database::new();
        let mut accounts = Table::new("Account", ["ID", "owner", "isBlocked"]);
        for (id, owner, blocked) in [
            ("a1", "Scott", "no"),
            ("a2", "Aretha", "no"),
            ("a4", "Jay", "yes"),
        ] {
            accounts.push([Value::str(id), Value::str(owner), Value::str(blocked)]);
        }
        db.insert(accounts);
        let mut transfers = Table::new("Transfer", ["ID", "A_ID1", "A_ID2", "amount"]);
        transfers.push([
            Value::str("t1"),
            Value::str("a1"),
            Value::str("a2"),
            Value::Int(8_000_000),
        ]);
        transfers.push([
            Value::str("t2"),
            Value::str("a2"),
            Value::str("a4"),
            Value::Int(10_000_000),
        ]);
        db.insert(transfers);
        let mut cat = Catalog::new(db);
        cat.create_property_graph(
            GraphView::new("bank")
                .vertex(VertexTable::new("Account", "ID").properties(["owner", "isBlocked"]))
                .edge(EdgeTable::new("Transfer", "ID", "A_ID1", "A_ID2").properties(["amount"])),
        )
        .unwrap();
        cat
    }

    #[test]
    fn catalog_materializes_and_queries() {
        let cat = bank_catalog();
        assert_eq!(cat.graph("bank").unwrap().node_count(), 3);
        let t = cat
            .graph_table(
                "bank",
                "MATCH (x:Account)-[t:Transfer]->(y:Account WHERE y.isBlocked='yes') \
                 COLUMNS (x.owner AS sender, t.amount AS amount)",
            )
            .unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(0, "sender"), Some(&Value::str("Aretha")));
        assert_eq!(t.get(0, "amount"), Some(&Value::Int(10_000_000)));
    }

    #[test]
    fn unknown_graph_is_an_error() {
        let cat = bank_catalog();
        assert!(cat.graph_table("nope", "MATCH (x) COLUMNS (x)").is_err());
    }
}
