//! Minimal in-memory relations — the tabular side of SQL/PGQ (Figure 2).

use std::collections::BTreeMap;
use std::fmt;

use property_graph::Value;

/// An in-memory table: named columns and rows of [`Value`]s.
#[derive(Clone, Debug, PartialEq)]
pub struct Table {
    pub name: String,
    pub columns: Vec<String>,
    pub rows: Vec<Vec<Value>>,
    /// The label set of the graph elements the table holds, recorded by
    /// [`tabulate`](crate::tabulate); `None` for any other table, which
    /// a tabulation's view reads as labelled by its name alone.
    pub labels: Option<Vec<String>>,
    /// The names of the structural columns, recorded by
    /// [`tabulate`](crate::tabulate); `None` for any other table, which a
    /// tabulation's view reads with the fixed names `ID` (and, when it has
    /// a `SRC` column, `SRC`, `DST` and `DIRECTED`).
    pub structure: Option<Structure>,
}

/// The structural columns of a tabulated table: the element key and, for
/// an edge table, its endpoints and direction. Every other column is a
/// property.
#[derive(Clone, Debug, PartialEq)]
pub struct Structure {
    /// The key column.
    pub id: String,
    /// The source, destination and direction columns of an edge table;
    /// `None` for a node table.
    pub edge: Option<[String; 3]>,
}

impl Table {
    /// An empty table with the given columns.
    pub fn new(
        name: impl Into<String>,
        columns: impl IntoIterator<Item = impl Into<String>>,
    ) -> Table {
        Table {
            name: name.into(),
            columns: columns.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
            labels: None,
            structure: None,
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    /// Panics if the arity does not match the column count.
    pub fn push(&mut self, row: impl IntoIterator<Item = Value>) {
        let row: Vec<Value> = row.into_iter().collect();
        assert_eq!(
            row.len(),
            self.columns.len(),
            "row arity mismatch in table {}",
            self.name
        );
        self.rows.push(row);
    }

    /// Index of a column by name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c == name)
    }

    /// The value at `(row, column-name)`.
    pub fn get(&self, row: usize, column: &str) -> Option<&Value> {
        let c = self.column_index(column)?;
        self.rows.get(row)?.get(c)
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

impl fmt::Display for Table {
    /// Renders a readable fixed-width table (used by the examples).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut widths: Vec<usize> = self.columns.iter().map(String::len).collect();
        let rendered: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| r.iter().map(Value::to_string).collect())
            .collect();
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        for (i, c) in self.columns.iter().enumerate() {
            write!(
                f,
                "{}{:width$}",
                if i > 0 { " | " } else { "" },
                c,
                width = widths[i]
            )?;
        }
        writeln!(f)?;
        writeln!(
            f,
            "{}",
            "-".repeat(widths.iter().sum::<usize>() + 3 * (widths.len().saturating_sub(1)))
        )?;
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                write!(
                    f,
                    "{}{:width$}",
                    if i > 0 { " | " } else { "" },
                    cell,
                    width = widths[i]
                )?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// A named collection of tables — the SQL schema a property graph view is
/// defined over.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Database {
    tables: BTreeMap<String, Table>,
}

impl Database {
    /// An empty database.
    pub fn new() -> Database {
        Database::default()
    }

    /// Adds (or replaces) a table.
    pub fn insert(&mut self, table: Table) {
        self.tables.insert(table.name.clone(), table);
    }

    /// Looks a table up.
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.tables.get(name)
    }

    /// All tables, sorted by name.
    pub fn tables(&self) -> impl Iterator<Item = &Table> {
        self.tables.values()
    }

    /// Number of tables.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// True when the database has no tables.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn accounts() -> Table {
        let mut t = Table::new("Account", ["ID", "owner", "isBlocked"]);
        t.push([Value::str("a1"), Value::str("Scott"), Value::str("no")]);
        t.push([Value::str("a4"), Value::str("Jay"), Value::str("yes")]);
        t
    }

    #[test]
    fn construction_and_lookup() {
        let t = accounts();
        assert_eq!(t.len(), 2);
        assert_eq!(t.column_index("owner"), Some(1));
        assert_eq!(t.get(1, "owner"), Some(&Value::str("Jay")));
        assert_eq!(t.get(0, "missing"), None);
        assert_eq!(t.get(5, "owner"), None);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_checked() {
        let mut t = accounts();
        t.push([Value::str("a5")]);
    }

    #[test]
    fn database_holds_tables() {
        let mut db = Database::new();
        assert!(db.is_empty());
        db.insert(accounts());
        assert_eq!(db.len(), 1);
        assert!(db.table("Account").is_some());
        assert!(db.table("Transfer").is_none());
        assert_eq!(db.tables().count(), 1);
    }

    #[test]
    fn display_renders_header_and_rows() {
        let t = accounts();
        let s = t.to_string();
        assert!(s.contains("ID"));
        assert!(s.contains("Scott"));
        assert!(s.lines().count() >= 4);
    }
}
