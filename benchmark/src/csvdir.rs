//! `join_multi`'s boot input: the transfer network as SQL tables plus the
//! `CREATE PROPERTY GRAPH` statement that views them as a graph again.

use std::io;
use std::path::Path;

use property_graph::PropertyGraph;
use sql_pgq::{tabulate, Catalog, Database, Table};

/// The view over [`tabulate`]'s tables of a transfer network (one table per
/// label combination; edge tables carry `SRC`/`DST` key columns).
pub const DDL: &str = "CREATE PROPERTY GRAPH bank
  VERTEX TABLES (
    Account KEY (ID) LABEL Account PROPERTIES (owner, isBlocked),
    CityCountry KEY (ID) LABELS (City, Country) PROPERTIES (name),
    Phone KEY (ID) LABEL Phone PROPERTIES (number, isBlocked)
  )
  EDGE TABLES (
    Transfer KEY (ID) SOURCE KEY (SRC) REFERENCES Account
      DESTINATION KEY (DST) REFERENCES Account
      LABEL Transfer PROPERTIES (amount, date),
    isLocatedIn KEY (ID) SOURCE KEY (SRC) REFERENCES Account
      DESTINATION KEY (DST) REFERENCES CityCountry
      LABEL isLocatedIn NO PROPERTIES,
    hasPhone KEY (ID) SOURCE KEY (SRC) REFERENCES Account
      DESTINATION KEY (DST) REFERENCES Phone
      LABEL hasPhone NO PROPERTIES UNDIRECTED
  )
";

/// Writes `<Table>.csv` per table and `schema.ddl` into `dir`.
pub fn write(dir: &Path, graph: &PropertyGraph) -> io::Result<()> {
    std::fs::create_dir_all(dir)?;
    for table in tabulate(graph).tables() {
        std::fs::write(dir.join(format!("{}.csv", table.name)), table.to_csv())?;
    }
    std::fs::write(dir.join("schema.ddl"), DDL)
}

/// Reads the directory back into a database, as `gpml serve --graph csv:DIR`
/// does.
pub fn load(dir: &Path) -> io::Result<Database> {
    let mut db = Database::new();
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.extension().and_then(|e| e.to_str()) != Some("csv") {
            continue;
        }
        let name = path
            .file_stem()
            .and_then(|s| s.to_str())
            .ok_or_else(|| io::Error::other(format!("bad table file name {path:?}")))?;
        let text = std::fs::read_to_string(&path)?;
        db.insert(Table::from_csv(name, &text).map_err(|e| io::Error::other(e.to_string()))?);
    }
    Ok(db)
}

/// Materializes the view over `db`: the SQL/PGQ layer's whole job at boot.
pub fn build_view(db: Database) -> io::Result<PropertyGraph> {
    let mut catalog = Catalog::new(db);
    catalog
        .execute_ddl(DDL)
        .map_err(|e| io::Error::other(e.to_string()))?;
    Ok(catalog.graph("bank").expect("the DDL names it").clone())
}
