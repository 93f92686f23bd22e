//! `GRAPH_TABLE`: running read-only GPML queries over a graph view and
//! projecting the path bindings back into a table (§6.6, Figure 9).
//!
//! The SQL/PGQ form is
//!
//! ```sql
//! SELECT * FROM GRAPH_TABLE (bank
//!   MATCH (x:Account)-[t:Transfer]->(y:Account)
//!   WHERE t.amount > 5000000
//!   COLUMNS (x.owner AS sender, y.owner AS receiver, t.amount AS amount))
//! ```
//!
//! [`graph_table`] takes the part after the graph name — `MATCH ...
//! COLUMNS (...)` — and produces a [`Table`]. Element references project
//! as their external keys, path references as the paper's
//! `path(a6,t5,a3,...)` rendering, group references as bracketed key
//! lists (PGQL's `LISTAGG` style).
//!
//! The body compiles to the same core [`Statement`] a GQL `RETURN`
//! statement does: `COLUMNS` fills the items of its
//! [`Projection`], and [`Statement::run`] evaluates them. Only the cell
//! type is this crate's: a [`Value`], with element, group and path
//! references as their text.

use std::ops::Deref;

use gpml_core::eval::EvalOptions;
use gpml_core::plan::{Projection, Statement};
use gpml_core::Params;
use gpml_parser::Parser;
use property_graph::{PropertyGraph, Value};

use crate::table::Table;
use crate::view::ViewError;

/// A failure while evaluating a `GRAPH_TABLE` query or a DDL statement.
#[derive(Clone, Debug, PartialEq)]
pub enum PgqError {
    Parse(gpml_parser::ParseError),
    Eval(gpml_core::Error),
    Syntax(String),
    /// A `CREATE PROPERTY GRAPH` view that does not fit its tables.
    View(ViewError),
}

impl std::fmt::Display for PgqError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PgqError::Parse(e) => write!(f, "{e}"),
            PgqError::Eval(e) => write!(f, "{e}"),
            PgqError::Syntax(s) => write!(f, "syntax error: {s}"),
            PgqError::View(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for PgqError {}

impl From<gpml_parser::ParseError> for PgqError {
    fn from(e: gpml_parser::ParseError) -> Self {
        PgqError::Parse(e)
    }
}

impl From<gpml_core::Error> for PgqError {
    fn from(e: gpml_core::Error) -> Self {
        PgqError::Eval(e)
    }
}

/// A compiled `GRAPH_TABLE` body: the core [`Statement`] its `MATCH ...
/// COLUMNS (...)` compiles to, shared with GQL. It runs against any
/// number of graphs, and a clone is a reference-count bump. `Deref` exposes the statement's plan and
/// EXPLAIN renderings.
#[derive(Clone)]
pub struct PreparedGraphTable(Statement);

impl Deref for PreparedGraphTable {
    type Target = Statement;

    fn deref(&self) -> &Statement {
        &self.0
    }
}

impl PreparedGraphTable {
    /// Runs the prepared body over `graph`, producing the projected table.
    pub fn execute(&self, graph: &PropertyGraph) -> Result<Table, PgqError> {
        self.execute_with(graph, &Params::new())
    }

    /// Runs the prepared body over `graph` with `params` bound to its
    /// `$name` placeholders — the *bind* step of prepare → bind →
    /// execute. Unbound, superfluous, and type-mismatched bindings
    /// surface as [`PgqError::Eval`] before any matching happens.
    /// Element, group and path references project as their text.
    pub fn execute_with(&self, graph: &PropertyGraph, params: &Params) -> Result<Table, PgqError> {
        let rows = self.0.run(graph, params, None, |b| {
            Value::str(b.display(graph).to_string())
        })?;
        Ok(Table {
            rows,
            ..Table::new("GRAPH_TABLE", self.0.columns())
        })
    }
}

/// Parses and lowers a `MATCH ... [WHERE ...] COLUMNS (...)` body into a
/// reusable [`PreparedGraphTable`].
pub fn prepare_graph_table(body: &str, opts: &EvalOptions) -> Result<PreparedGraphTable, PgqError> {
    let mut p = Parser::new(body);
    p.expect_kw("MATCH")?;
    let pattern = p.parse_graph_pattern()?;
    p.expect_kw("COLUMNS")?;
    if !p.eat("(") {
        return Err(PgqError::Syntax("expected ( after COLUMNS".into()));
    }
    let items = p.parse_items()?;
    if !p.eat(")") {
        return Err(PgqError::Syntax("expected ) after column list".into()));
    }
    p.expect_eof()?;
    let projection = Projection {
        items,
        ..Projection::default()
    };
    let statement = Statement::prepare(&pattern, Some(projection), opts)?;
    Ok(PreparedGraphTable(statement))
}

/// Parses the `MATCH ... [WHERE ...] COLUMNS (...)` body and evaluates it
/// over `graph`.
pub fn graph_table(graph: &PropertyGraph, body: &str) -> Result<Table, PgqError> {
    prepare_graph_table(body, &EvalOptions::default())?.execute(graph)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpml_datagen::fig1;

    #[test]
    fn projects_scalar_columns() {
        let g = fig1();
        let t = graph_table(
            &g,
            "MATCH (x:Account)-[t:Transfer]->(y:Account) \
             WHERE t.amount > 9M \
             COLUMNS (x.owner AS sender, y.owner AS receiver, t.amount AS amount)",
        )
        .unwrap();
        assert_eq!(t.columns, vec!["sender", "receiver", "amount"]);
        // Four 10M transfers: t2, t3, t4, t5.
        assert_eq!(t.len(), 4);
        assert!(t.rows.iter().all(|r| r[2] == Value::Int(10_000_000)));
    }

    #[test]
    fn projects_element_and_path_references() {
        let g = fig1();
        let t = graph_table(
            &g,
            "MATCH p = (a WHERE a.owner='Scott')-[t:Transfer]->(b) \
             COLUMNS (a, t, p, b.owner AS dest)",
        )
        .unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(0, "a"), Some(&Value::str("a1")));
        assert_eq!(t.get(0, "t"), Some(&Value::str("t1")));
        assert_eq!(t.get(0, "p"), Some(&Value::str("path(a1,t1,a3)")));
        assert_eq!(t.get(0, "dest"), Some(&Value::str("Mike")));
    }

    #[test]
    fn group_references_render_as_lists() {
        let g = fig1();
        // PGQL-style LISTAGG over a group variable.
        let t = graph_table(
            &g,
            "MATCH ANY (x WHERE x.owner='Dave')-[e:Transfer]->+(y WHERE y.owner='Aretha') \
             COLUMNS (e AS edges, COUNT(e) AS hops)",
        )
        .unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(0, "edges"), Some(&Value::str("[t5,t2]")));
        assert_eq!(t.get(0, "hops"), Some(&Value::Int(2)));
    }

    #[test]
    fn default_alias_is_the_expression() {
        let g = fig1();
        let t = graph_table(&g, "MATCH (x:Account) COLUMNS (x.owner)").unwrap();
        assert_eq!(t.columns, vec!["x.owner"]);
        assert_eq!(t.len(), 6);
    }

    #[test]
    fn static_errors_surface() {
        let g = fig1();
        let err = graph_table(&g, "MATCH (x)-[e]->*(y) COLUMNS (x)").unwrap_err();
        assert!(matches!(err, PgqError::Eval(_)), "{err}");
        let err = graph_table(&g, "MATCH (x COLUMNS (x)").unwrap_err();
        assert!(matches!(err, PgqError::Parse(_)), "{err}");
        let err = graph_table(&g, "MATCH (x) COLUMNS x").unwrap_err();
        assert!(matches!(err, PgqError::Syntax(_)), "{err}");
    }

    #[test]
    fn prepared_graph_table_reuses_across_graphs() {
        let body = "MATCH (x:Account)-[t:Transfer]->(y:Account) \
                    COLUMNS (x.owner AS sender, y.owner AS receiver)";
        let prepared = prepare_graph_table(body, &EvalOptions::default()).unwrap();
        let g1 = fig1();
        let first = prepared.execute(&g1).unwrap();
        assert_eq!(first.len(), 8); // all transfers in Figure 1
                                    // Same prepared body over a different graph: independent result.
        let mut g2 = property_graph::PropertyGraph::new();
        let a = g2.add_node("a", ["Account"], [("owner", Value::str("A"))]);
        let b = g2.add_node("b", ["Account"], [("owner", Value::str("B"))]);
        g2.add_edge(
            "t",
            property_graph::Endpoints::directed(a, b),
            ["Transfer"],
            [],
        );
        let second = prepared.execute(&g2).unwrap();
        assert_eq!(second.len(), 1);
        assert_eq!(second.get(0, "sender"), Some(&Value::str("A")));
        // And re-executing over the first graph is unchanged.
        assert_eq!(prepared.execute(&g1).unwrap(), first);
    }

    #[test]
    fn parameterized_body_rebinds_against_one_prepared_plan() {
        let g = fig1();
        let body = "MATCH (x:Account)-[t:Transfer WHERE t.amount >= $min]->(y:Account) \
                    COLUMNS (x.owner AS sender, t.amount AS amount)";
        let prepared = prepare_graph_table(body, &EvalOptions::default()).unwrap();
        // Inlined-literal oracle.
        let inlined = graph_table(
            &g,
            "MATCH (x:Account)-[t:Transfer WHERE t.amount >= 10M]->(y:Account) \
             COLUMNS (x.owner AS sender, t.amount AS amount)",
        )
        .unwrap();
        let bound = prepared
            .execute_with(&g, &Params::new().with("min", 10_000_000))
            .unwrap();
        assert_eq!(bound.rows, inlined.rows);
        // Re-binding the same prepared body.
        let low = prepared
            .execute_with(&g, &Params::new().with("min", 0))
            .unwrap();
        assert_eq!(low.len(), 8); // every transfer in Figure 1
    }

    #[test]
    fn parameters_work_in_columns_projections() {
        let g = fig1();
        let prepared = prepare_graph_table(
            "MATCH (x:Account WHERE x.owner = $owner) \
             COLUMNS (x.owner AS owner, $tag AS tag)",
            &EvalOptions::default(),
        )
        .unwrap();
        let t = prepared
            .execute_with(&g, &Params::new().with("owner", "Dave").with("tag", 42))
            .unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(0, "tag"), Some(&Value::Int(42)));
    }

    #[test]
    fn parameter_errors_are_typed_pgq_errors() {
        let g = fig1();
        let body = "MATCH (x:Account WHERE x.owner = $owner) COLUMNS (x)";
        // Unbound (plain execute of a parameterized body).
        assert!(matches!(
            graph_table(&g, body),
            Err(PgqError::Eval(gpml_core::Error::UnboundParameter { ref name })) if name == "owner"
        ));
        // Extra.
        let prepared = prepare_graph_table(body, &EvalOptions::default()).unwrap();
        let extra = Params::new().with("owner", "Dave").with("ghost", true);
        assert!(matches!(
            prepared.execute_with(&g, &extra),
            Err(PgqError::Eval(gpml_core::Error::UnusedParameter { ref name })) if name == "ghost"
        ));
        // Type mismatch: $min is used in arithmetic.
        let numeric = prepare_graph_table(
            "MATCH (x:Account)-[t:Transfer]->(y) \
             WHERE t.amount > $min * 2 COLUMNS (x)",
            &EvalOptions::default(),
        )
        .unwrap();
        assert!(matches!(
            numeric.execute_with(&g, &Params::new().with("min", "big")),
            Err(PgqError::Eval(
                gpml_core::Error::ParameterTypeMismatch { ref name, .. }
            )) if name == "min"
        ));
    }

    #[test]
    fn unbound_conditional_projects_null() {
        let g = fig1();
        let t = graph_table(
            &g,
            "MATCH (x:Account WHERE x.owner='Scott') [-[s:signInWithIP]->(ip:IP)]? \
             COLUMNS (x.owner AS o, ip AS ip)",
        )
        .unwrap();
        // One row without the optional part, one with.
        assert_eq!(t.len(), 2);
        let ips: Vec<_> = t.rows.iter().map(|r| r[1].clone()).collect();
        assert!(ips.contains(&Value::Null));
        assert!(ips.contains(&Value::str("ip1")));
    }
}
