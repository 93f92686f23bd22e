//! `CREATE PROPERTY GRAPH` DDL — the SQL/PGQ surface syntax for defining
//! graph views over a tabular schema (§1 of the paper; SQL:2023 part 16).
//!
//! ```sql
//! CREATE PROPERTY GRAPH bank
//!   VERTEX TABLES (
//!     Account KEY (ID) LABEL Account PROPERTIES (owner, isBlocked),
//!     Phone   KEY (ID)
//!   )
//!   EDGE TABLES (
//!     Transfer KEY (ID)
//!       SOURCE KEY (A_ID1) REFERENCES Account
//!       DESTINATION KEY (A_ID2) REFERENCES Account
//!       PROPERTIES (date, amount),
//!     hasPhone KEY (ID)
//!       SOURCE KEY (A) REFERENCES Account
//!       DESTINATION KEY (B) REFERENCES Phone
//!       UNDIRECTED
//!   )
//! ```
//!
//! The parser reuses the GPML parser's lexical machinery; [`parse_ddl`]
//! yields a [`GraphView`] ready to materialize over a [`Database`].
//!
//! [`Database`]: crate::table::Database

use gpml_parser::Parser;

use crate::graph_table::PgqError;
use crate::view::{EdgeTable, GraphView, VertexTable};

/// Parses one `CREATE PROPERTY GRAPH` statement.
pub fn parse_ddl(input: &str) -> Result<GraphView, PgqError> {
    let mut p = Parser::new(input);
    p.expect_kw("CREATE")?;
    p.expect_kw("PROPERTY")?;
    p.expect_kw("GRAPH")?;
    let name = p.ident()?;
    let mut view = GraphView::new(name);

    p.expect_kw("VERTEX")?;
    p.expect_kw("TABLES")?;
    for v in parens(&mut p, parse_vertex)? {
        view = view.vertex(v);
    }

    if p.eat_kw("EDGE") {
        p.expect_kw("TABLES")?;
        let declared: Vec<String> = view.vertices.iter().map(|v| v.table.clone()).collect();
        for e in parens(&mut p, |p| parse_edge(p, &declared))? {
            view = view.edge(e);
        }
    }
    p.expect_eof()?;
    Ok(view)
}

fn parse_vertex(p: &mut Parser<'_>) -> Result<VertexTable, PgqError> {
    let table = p.ident()?;
    p.expect_kw("KEY")?;
    let key = parens_single(p)?;
    let mut v = VertexTable::new(table, key);
    if let Some(labels) = parse_labels(p)? {
        v = v.labels(labels);
    }
    if let Some(props) = parse_properties(p)? {
        v = v.properties(props);
    }
    Ok(v)
}

fn parse_edge(p: &mut Parser<'_>, declared_vertices: &[String]) -> Result<EdgeTable, PgqError> {
    let table = p.ident()?;
    p.expect_kw("KEY")?;
    let key = parens_single(p)?;
    p.expect_kw("SOURCE")?;
    p.expect_kw("KEY")?;
    let source = parens_single(p)?;
    p.expect_kw("REFERENCES")?;
    let src_table = p.ident()?;
    p.expect_kw("DESTINATION")?;
    p.expect_kw("KEY")?;
    let destination = parens_single(p)?;
    p.expect_kw("REFERENCES")?;
    let dst_table = p.ident()?;
    for t in [&src_table, &dst_table] {
        if !declared_vertices.contains(t) {
            return Err(PgqError::Syntax(format!(
                "edge table references undeclared vertex table {t}"
            )));
        }
    }
    let mut e = EdgeTable::new(table, key, source, destination);
    if let Some(labels) = parse_labels(p)? {
        e = e.labels(labels);
    }
    if let Some(props) = parse_properties(p)? {
        e = e.properties(props);
    }
    if p.eat_kw("UNDIRECTED") {
        e = e.undirected();
    }
    Ok(e)
}

/// `LABEL x` or `LABELS (x, y, ...)`.
fn parse_labels(p: &mut Parser<'_>) -> Result<Option<Vec<String>>, PgqError> {
    if p.eat_kw("LABEL") {
        return Ok(Some(vec![p.ident()?]));
    }
    if p.eat_kw("LABELS") {
        return Ok(Some(parens_list(p)?));
    }
    Ok(None)
}

/// `PROPERTIES (a, b, ...)` or `NO PROPERTIES`.
fn parse_properties(p: &mut Parser<'_>) -> Result<Option<Vec<String>>, PgqError> {
    if p.eat_kw("NO") {
        p.expect_kw("PROPERTIES")?;
        return Ok(Some(Vec::new()));
    }
    if p.eat_kw("PROPERTIES") {
        return Ok(Some(parens_list(p)?));
    }
    Ok(None)
}

fn parens_single(p: &mut Parser<'_>) -> Result<String, PgqError> {
    let [column] = <[String; 1]>::try_from(parens_list(p)?)
        .map_err(|_| PgqError::Syntax("expected exactly one column".into()))?;
    Ok(column)
}

fn parens_list(p: &mut Parser<'_>) -> Result<Vec<String>, PgqError> {
    parens(p, |p| Ok(p.ident()?))
}

/// `(item, item, ...)`: a parenthesized, comma-separated, non-empty list.
fn parens<'a, T>(
    p: &mut Parser<'a>,
    mut item: impl FnMut(&mut Parser<'a>) -> Result<T, PgqError>,
) -> Result<Vec<T>, PgqError> {
    p.expect("(")?;
    let mut items = vec![item(p)?];
    while p.eat(",") {
        items.push(item(p)?);
    }
    p.expect(")")?;
    Ok(items)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::{Database, Table};
    use property_graph::Value;

    const BANK_DDL: &str = "\
        CREATE PROPERTY GRAPH bank \
        VERTEX TABLES ( \
            Account KEY (ID) LABEL Account PROPERTIES (owner, isBlocked), \
            Phone KEY (ID) PROPERTIES (number) \
        ) \
        EDGE TABLES ( \
            Transfer KEY (ID) \
                SOURCE KEY (A_ID1) REFERENCES Account \
                DESTINATION KEY (A_ID2) REFERENCES Account \
                PROPERTIES (date, amount), \
            hasPhone KEY (ID) \
                SOURCE KEY (A) REFERENCES Account \
                DESTINATION KEY (B) REFERENCES Phone \
                NO PROPERTIES UNDIRECTED \
        )";

    #[test]
    fn parses_the_bank_schema() {
        let view = parse_ddl(BANK_DDL).unwrap();
        assert_eq!(view.name, "bank");
        assert_eq!(view.vertices.len(), 2);
        assert_eq!(view.edges.len(), 2);
        assert_eq!(view.vertices[0].labels, vec!["Account"]);
        assert_eq!(view.vertices[0].properties, vec!["owner", "isBlocked"]);
        let t = &view.edges[0];
        assert_eq!(t.source_column, "A_ID1");
        assert_eq!(t.destination_column, "A_ID2");
        assert!(t.directed);
        let hp = &view.edges[1];
        assert!(!hp.directed);
        assert!(hp.properties.is_empty());
    }

    #[test]
    fn multi_label_combination() {
        // The CityCountry table of Figure 2 carries both labels.
        let view = parse_ddl(
            "CREATE PROPERTY GRAPH places VERTEX TABLES ( \
             CityCountry KEY (ID) LABELS (City, Country) PROPERTIES (name) )",
        )
        .unwrap();
        assert_eq!(view.vertices[0].labels, vec!["City", "Country"]);
    }

    #[test]
    fn undeclared_reference_rejected() {
        let err = parse_ddl(
            "CREATE PROPERTY GRAPH g \
             VERTEX TABLES ( A KEY (ID) ) \
             EDGE TABLES ( E KEY (ID) SOURCE KEY (S) REFERENCES A \
             DESTINATION KEY (D) REFERENCES Ghost )",
        )
        .unwrap_err();
        assert!(err.to_string().contains("Ghost"), "{err}");
    }

    #[test]
    fn syntax_errors_are_positioned() {
        for bad in [
            "CREATE GRAPH g VERTEX TABLES (A KEY (ID))",
            "CREATE PROPERTY GRAPH g VERTEX TABLES ()",
            "CREATE PROPERTY GRAPH g VERTEX TABLES (A KEY (ID, ID2))",
            "CREATE PROPERTY GRAPH g VERTEX TABLES (A KEY (ID)) trailing",
        ] {
            assert!(parse_ddl(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn ddl_view_materializes_end_to_end() {
        let mut db = Database::new();
        let mut account = Table::new("Account", ["ID", "owner", "isBlocked"]);
        account.push([Value::str("a1"), Value::str("Scott"), Value::str("no")]);
        account.push([Value::str("a2"), Value::str("Jay"), Value::str("yes")]);
        db.insert(account);
        let mut phone = Table::new("Phone", ["ID", "number"]);
        phone.push([Value::str("p1"), Value::Int(111)]);
        db.insert(phone);
        let mut transfer = Table::new("Transfer", ["ID", "A_ID1", "A_ID2", "date", "amount"]);
        transfer.push([
            Value::str("t1"),
            Value::str("a1"),
            Value::str("a2"),
            Value::str("1/1/2020"),
            Value::Int(8_000_000),
        ]);
        db.insert(transfer);
        let mut hp = Table::new("hasPhone", ["ID", "A", "B"]);
        hp.push([Value::str("hp1"), Value::str("a1"), Value::str("p1")]);
        db.insert(hp);

        let view = parse_ddl(BANK_DDL).unwrap();
        let g = view.materialize(&db).unwrap();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 2);
        let hp1 = g.edge_by_name("hp1").unwrap();
        assert!(!g.edge(hp1).endpoints.is_directed());

        // And it is queryable.
        let t = crate::graph_table(
            &g,
            "MATCH (x:Account)-[t:Transfer]->(y WHERE y.isBlocked='yes') \
             COLUMNS (x.owner AS sender)",
        )
        .unwrap();
        assert_eq!(t.get(0, "sender"), Some(&Value::str("Scott")));
    }
}
