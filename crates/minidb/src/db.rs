//! The database: a catalog of tables plus the statement dispatcher.

use std::collections::BTreeMap;

use crate::error::DbError;
use crate::exec::{run_select, run_select_column, ExecContext, Filter};
use crate::schema::{ColumnDef, TableSchema};
use crate::sql::ast::{SelectStmt, Statement};
use crate::sql::parse;
use crate::table::Table;
use crate::value::Value;

/// The result of a query: column names plus rows.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    columns: Vec<String>,
    rows: Vec<Vec<Value>>,
}

impl QueryResult {
    /// Column names in projection order.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// The result rows.
    pub fn rows(&self) -> &[Vec<Value>] {
        &self.rows
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the result is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Index of a column by name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.eq_ignore_ascii_case(name))
    }

    /// Iterates over rows as `(column, value)` maps is avoided — use
    /// [`QueryResult::column_index`] plus [`QueryResult::rows`] for
    /// zero-copy access.
    pub fn into_rows(self) -> Vec<Vec<Value>> {
        self.rows
    }
}

/// How many rows a non-query statement affected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Affected(pub usize);

/// An in-memory SQL database.
///
/// # Examples
///
/// ```
/// use s2s_minidb::Database;
///
/// # fn main() -> Result<(), s2s_minidb::DbError> {
/// let mut db = Database::new("inventory");
/// db.execute("CREATE TABLE parts (id INTEGER PRIMARY KEY, name TEXT)")?;
/// db.execute("INSERT INTO parts VALUES (1, 'crown'), (2, 'bezel')")?;
/// assert_eq!(db.query("SELECT * FROM parts")?.len(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Database {
    name: String,
    tables: BTreeMap<String, Table>,
}

impl Database {
    /// Creates an empty database.
    pub fn new(name: impl Into<String>) -> Self {
        Database { name: name.into(), tables: BTreeMap::new() }
    }

    /// The database name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Direct access to a table.
    pub fn table(&self, name: &str) -> Option<&Table> {
        // Keys are lower-case; a name written that way is a plain get.
        self.tables.get(name).or_else(|| {
            self.tables.iter().find(|(key, _)| key.eq_ignore_ascii_case(name)).map(|(_, t)| t)
        })
    }

    /// The schema of every table, in table-name order — the
    /// introspection surface the semantic bootstrap pass reads to
    /// derive candidate mappings from `CREATE TABLE` metadata.
    pub fn schemas(&self) -> impl Iterator<Item = &crate::schema::TableSchema> {
        self.tables.values().map(Table::schema)
    }

    /// Executes any statement; returns rows affected (0 for SELECT — use
    /// [`Database::query`] for results).
    ///
    /// # Errors
    ///
    /// Propagates parse and execution errors; see [`DbError`].
    pub fn execute(&mut self, sql: &str) -> Result<Affected, DbError> {
        match parse(sql)? {
            Statement::CreateTable { name, columns } => {
                let key = name.to_ascii_lowercase();
                if self.tables.contains_key(&key) {
                    return Err(DbError::DuplicateTable { table: name });
                }
                let defs = columns.into_iter().map(|(n, t, pk)| ColumnDef::new(n, t, pk)).collect();
                let schema = TableSchema::new(name, defs)?;
                self.tables.insert(key, Table::new(schema));
                Ok(Affected(0))
            }
            Statement::CreateIndex { table, column } => {
                let t = self.table_mut(&table)?;
                t.create_index(&column)?;
                Ok(Affected(0))
            }
            Statement::Insert { table, columns, rows } => {
                let t = self.table_mut(&table)?;
                // Reorder values into schema order when a column list is
                // given; missing columns become NULL.
                let mapping: Option<Vec<usize>> = match &columns {
                    Some(cols) => {
                        let mut m = Vec::with_capacity(cols.len());
                        for c in cols {
                            m.push(
                                t.schema()
                                    .column_index(c)
                                    .ok_or_else(|| DbError::UnknownColumn { column: c.clone() })?,
                            );
                        }
                        Some(m)
                    }
                    None => None,
                };
                let arity = t.schema().arity();
                let mut n = 0;
                for row in rows {
                    let full = match &mapping {
                        Some(m) => {
                            if row.len() != m.len() {
                                return Err(DbError::TypeMismatch {
                                    message: format!(
                                        "expected {} values, got {}",
                                        m.len(),
                                        row.len()
                                    ),
                                });
                            }
                            let mut full = vec![Value::Null; arity];
                            for (v, &idx) in row.into_iter().zip(m) {
                                full[idx] = v;
                            }
                            full
                        }
                        None => row,
                    };
                    t.insert(full)?;
                    n += 1;
                }
                Ok(Affected(n))
            }
            Statement::Select(_) => Ok(Affected(0)),
            Statement::Update { table, sets, predicate } => {
                let t = self.table_mut(&table)?;
                let mut set_idx = Vec::with_capacity(sets.len());
                for (c, v) in &sets {
                    let idx = t
                        .schema()
                        .column_index(c)
                        .ok_or_else(|| DbError::UnknownColumn { column: c.clone() })?;
                    set_idx.push((idx, v.clone()));
                }
                let filter =
                    predicate.as_ref().map(|p| Filter::for_table(p, &table, t)).transpose()?;
                let targets: Vec<(usize, Vec<Value>)> = t
                    .scan()
                    .filter(|(_, row)| filter.as_ref().is_none_or(|f| f.matches_row(row)))
                    .map(|(rid, row)| (rid, row.to_vec()))
                    .collect();
                let n = targets.len();
                for (rid, mut new_row) in targets {
                    for (idx, v) in &set_idx {
                        new_row[*idx] = v.clone();
                    }
                    t.update(rid, new_row)?;
                }
                Ok(Affected(n))
            }
            Statement::Delete { table, predicate } => {
                let t = self.table_mut(&table)?;
                // Compiled before any row is read: a malformed predicate
                // must error rather than silently delete nothing.
                let filter =
                    predicate.as_ref().map(|p| Filter::for_table(p, &table, t)).transpose()?;
                let targets: Vec<usize> = t
                    .scan()
                    .filter(|(_, row)| filter.as_ref().is_none_or(|f| f.matches_row(row)))
                    .map(|(rid, _)| rid)
                    .collect();
                let mut n = 0;
                for rid in targets {
                    if t.delete(rid) {
                        n += 1;
                    }
                }
                Ok(Affected(n))
            }
        }
    }

    /// Runs a SELECT.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::TypeMismatch`] if `sql` is not a SELECT, plus
    /// any parse/execution error.
    pub fn query(&self, sql: &str) -> Result<QueryResult, DbError> {
        self.query_prepared(&Database::prepare_select(sql)?)
    }

    /// Parses `sql` into a reusable SELECT statement, so callers that
    /// run the same query repeatedly (e.g. the extraction rule cache)
    /// pay the parse once.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::TypeMismatch`] if `sql` is not a SELECT, plus
    /// any parse error.
    pub fn prepare_select(sql: &str) -> Result<SelectStmt, DbError> {
        match parse(sql)? {
            Statement::Select(stmt) => Ok(stmt),
            _ => {
                Err(DbError::TypeMismatch { message: "prepare_select() requires a SELECT".into() })
            }
        }
    }

    /// Runs a pre-parsed SELECT (see [`Database::prepare_select`]).
    ///
    /// # Errors
    ///
    /// Propagates execution errors; see [`DbError`].
    pub fn query_prepared(&self, stmt: &SelectStmt) -> Result<QueryResult, DbError> {
        let (columns, rows) = run_select(stmt, &self.exec_context(stmt)?)?;
        Ok(QueryResult { columns, rows })
    }

    /// Runs a pre-parsed SELECT and hands `each` the non-NULL values of
    /// one result column, borrowed from the stored rows in result order:
    /// what `query_prepared` plus [`QueryResult::column_index`] would
    /// give, without materializing rows or rendering anything — the
    /// caller writes each value where it wants it ([`Value::write_to`]).
    ///
    /// # Errors
    ///
    /// Propagates execution errors, then [`DbError::UnknownColumn`] if
    /// the result has no column named `column`; `each` has seen nothing
    /// when an error is returned.
    pub fn query_column_each(
        &self,
        stmt: &SelectStmt,
        column: &str,
        each: impl FnMut(&Value),
    ) -> Result<(), DbError> {
        run_select_column(stmt, &self.exec_context(stmt)?, column, each)
    }

    /// The statement's FROM/JOIN chain, base table first.
    fn exec_context<'a>(&'a self, stmt: &'a SelectStmt) -> Result<ExecContext<'a>, DbError> {
        let mut tables = Vec::with_capacity(1 + stmt.joins.len());
        tables.push((stmt.table.as_str(), self.table_ref(&stmt.table)?));
        for j in &stmt.joins {
            tables.push((j.table.as_str(), self.table_ref(&j.table)?));
        }
        Ok(ExecContext::new(tables))
    }

    fn table_ref(&self, name: &str) -> Result<&Table, DbError> {
        self.table(name).ok_or_else(|| DbError::UnknownTable { table: name.to_string() })
    }

    fn table_mut(&mut self, name: &str) -> Result<&mut Table, DbError> {
        self.tables
            .get_mut(&name.to_ascii_lowercase())
            .ok_or_else(|| DbError::UnknownTable { table: name.to_string() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn catalog() -> Database {
        let mut db = Database::new("catalog");
        db.execute(
            "CREATE TABLE watches (id INTEGER PRIMARY KEY, brand TEXT, price REAL, \
             case_material TEXT, provider_id INTEGER)",
        )
        .unwrap();
        db.execute("CREATE TABLE providers (id INTEGER PRIMARY KEY, name TEXT, country TEXT)")
            .unwrap();
        db.execute("INSERT INTO providers VALUES (1, 'TimeHouse', 'PT'), (2, 'WatchWorld', 'JP')")
            .unwrap();
        db.execute(
            "INSERT INTO watches VALUES \
             (1, 'Seiko', 129.99, 'stainless-steel', 2), \
             (2, 'Casio', 59.5, 'resin', 2), \
             (3, 'Seiko', 299.0, 'titanium', 1), \
             (4, 'Orient', 189.0, 'stainless-steel', 1)",
        )
        .unwrap();
        db
    }

    #[test]
    fn select_where_and() {
        let db = catalog();
        let r = db
            .query("SELECT id FROM watches WHERE brand = 'Seiko' AND case_material = 'stainless-steel'")
            .unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r.rows()[0][0], Value::Int(1));
    }

    #[test]
    fn select_star_projection() {
        let db = catalog();
        let r = db.query("SELECT * FROM providers").unwrap();
        assert_eq!(r.columns(), ["id", "name", "country"]);
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn order_by_and_limit() {
        let db = catalog();
        let r = db.query("SELECT brand FROM watches ORDER BY price DESC LIMIT 2").unwrap();
        let brands: Vec<_> = r.rows().iter().map(|row| row[0].render()).collect();
        assert_eq!(brands, ["Seiko", "Orient"]);
    }

    #[test]
    fn like_predicate() {
        let db = catalog();
        let r = db.query("SELECT id FROM watches WHERE case_material LIKE '%steel'").unwrap();
        assert_eq!(r.len(), 2);
        let r = db.query("SELECT id FROM watches WHERE brand NOT LIKE 'S%'").unwrap();
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn join_two_tables() {
        let db = catalog();
        let r = db
            .query(
                "SELECT watches.brand, providers.name FROM watches \
                 JOIN providers ON watches.provider_id = providers.id \
                 WHERE providers.country = 'JP' ORDER BY watches.brand",
            )
            .unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(r.rows()[0][0].as_text(), Some("Casio"));
        assert_eq!(r.rows()[0][1].as_text(), Some("WatchWorld"));
    }

    #[test]
    fn index_and_scan_agree() {
        let mut db = catalog();
        let scan = db.query("SELECT id FROM watches WHERE brand = 'Seiko'").unwrap();
        db.execute("CREATE INDEX ON watches (brand)").unwrap();
        let indexed = db.query("SELECT id FROM watches WHERE brand = 'Seiko'").unwrap();
        let mut a: Vec<_> = scan.rows().to_vec();
        let mut b: Vec<_> = indexed.rows().to_vec();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn update_rows() {
        let mut db = catalog();
        let n = db.execute("UPDATE watches SET price = 100.0 WHERE brand = 'Seiko'").unwrap();
        assert_eq!(n.0, 2);
        let r = db.query("SELECT id FROM watches WHERE price = 100.0").unwrap();
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn delete_rows() {
        let mut db = catalog();
        let n = db.execute("DELETE FROM watches WHERE price < 100").unwrap();
        assert_eq!(n.0, 1);
        assert_eq!(db.query("SELECT * FROM watches").unwrap().len(), 3);
        // Delete-all.
        let n = db.execute("DELETE FROM watches").unwrap();
        assert_eq!(n.0, 3);
    }

    #[test]
    fn insert_with_column_list_fills_null() {
        let mut db = catalog();
        db.execute("INSERT INTO watches (id, brand) VALUES (9, 'Tissot')").unwrap();
        let r = db.query("SELECT price FROM watches WHERE id = 9").unwrap();
        assert!(r.rows()[0][0].is_null());
        let r = db.query("SELECT id FROM watches WHERE price IS NULL").unwrap();
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn errors() {
        let mut db = catalog();
        assert!(matches!(db.query("SELECT * FROM missing"), Err(DbError::UnknownTable { .. })));
        assert!(matches!(db.query("SELECT nope FROM watches"), Err(DbError::UnknownColumn { .. })));
        assert!(matches!(
            db.query("SELECT id FROM watches JOIN providers ON watches.provider_id = providers.id WHERE 1 = 1"),
            Err(DbError::Syntax { .. })
        ));
        assert!(matches!(
            db.execute("CREATE TABLE watches (id INTEGER)"),
            Err(DbError::DuplicateTable { .. })
        ));
        assert!(matches!(db.query("DELETE FROM watches"), Err(DbError::TypeMismatch { .. })));
        // Ambiguous `id` across joined tables.
        assert!(matches!(
            db.query("SELECT id FROM watches JOIN providers ON watches.provider_id = providers.id"),
            Err(DbError::AmbiguousColumn { .. })
        ));
    }

    #[test]
    fn unknown_column_errors_even_on_empty_table() {
        let mut db = Database::new("d");
        db.execute("CREATE TABLE t (a INTEGER)").unwrap();
        assert!(matches!(
            db.query("SELECT a FROM t WHERE nope = 1"),
            Err(DbError::UnknownColumn { .. })
        ));
        assert!(matches!(
            db.execute("DELETE FROM t WHERE nope = 1"),
            Err(DbError::UnknownColumn { .. })
        ));
    }

    #[test]
    fn null_semantics_in_where() {
        let mut db = Database::new("d");
        db.execute("CREATE TABLE t (a INTEGER, b INTEGER)").unwrap();
        db.execute("INSERT INTO t VALUES (1, NULL), (2, 5)").unwrap();
        // NULL = NULL is UNKNOWN, not true.
        assert_eq!(db.query("SELECT a FROM t WHERE b = NULL").unwrap().len(), 0);
        assert_eq!(db.query("SELECT a FROM t WHERE b IS NULL").unwrap().len(), 1);
        assert_eq!(db.query("SELECT a FROM t WHERE b != 5 OR a = 1").unwrap().len(), 1);
        // NOT UNKNOWN is UNKNOWN.
        assert_eq!(db.query("SELECT a FROM t WHERE NOT (b = 5)").unwrap().len(), 0);
    }

    #[test]
    fn three_way_join() {
        let mut db = Database::new("d");
        db.execute("CREATE TABLE a (id INTEGER PRIMARY KEY, b_id INTEGER)").unwrap();
        db.execute("CREATE TABLE b (id INTEGER PRIMARY KEY, c_id INTEGER)").unwrap();
        db.execute("CREATE TABLE c (id INTEGER PRIMARY KEY, name TEXT)").unwrap();
        db.execute("INSERT INTO a VALUES (1, 10), (2, 20)").unwrap();
        db.execute("INSERT INTO b VALUES (10, 100), (20, 200)").unwrap();
        db.execute("INSERT INTO c VALUES (100, 'x'), (200, 'y')").unwrap();
        let r = db
            .query(
                "SELECT c.name FROM a JOIN b ON a.b_id = b.id JOIN c ON b.c_id = c.id \
                 WHERE a.id = 2",
            )
            .unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r.rows()[0][0].as_text(), Some("y"));
    }

    #[test]
    fn column_to_column_predicate() {
        let mut db = Database::new("d");
        db.execute("CREATE TABLE t (a INTEGER, b INTEGER)").unwrap();
        db.execute("INSERT INTO t VALUES (1, 1), (1, 2)").unwrap();
        assert_eq!(db.query("SELECT a FROM t WHERE a = b").unwrap().len(), 1);
    }

    #[test]
    fn aggregates_global() {
        let db = catalog();
        let r = db
            .query("SELECT COUNT(*), SUM(price), MIN(price), MAX(price), AVG(price) FROM watches")
            .unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r.columns()[0], "count(*)");
        assert_eq!(r.rows()[0][0], Value::Int(4));
        assert_eq!(r.rows()[0][1].as_float().unwrap(), 129.99 + 59.5 + 299.0 + 189.0);
        assert_eq!(r.rows()[0][2].as_float(), Some(59.5));
        assert_eq!(r.rows()[0][3].as_float(), Some(299.0));
        let avg = r.rows()[0][4].as_float().unwrap();
        assert!((avg - (129.99 + 59.5 + 299.0 + 189.0) / 4.0).abs() < 1e-9);
    }

    #[test]
    fn aggregates_with_where() {
        let db = catalog();
        let r = db.query("SELECT COUNT(*) FROM watches WHERE brand = 'Seiko'").unwrap();
        assert_eq!(r.rows()[0][0], Value::Int(2));
    }

    #[test]
    fn aggregates_group_by() {
        let db = catalog();
        let r = db
            .query("SELECT brand, COUNT(*), MAX(price) FROM watches GROUP BY brand ORDER BY brand")
            .unwrap();
        assert_eq!(r.len(), 3);
        assert_eq!(r.rows()[0][0].as_text(), Some("Casio"));
        assert_eq!(r.rows()[0][1], Value::Int(1));
        let seiko = r.rows().iter().find(|row| row[0].as_text() == Some("Seiko")).unwrap();
        assert_eq!(seiko[1], Value::Int(2));
        assert_eq!(seiko[2].as_float(), Some(299.0));
        // DESC ordering reverses the groups.
        let r = db
            .query("SELECT brand, COUNT(*) FROM watches GROUP BY brand ORDER BY brand DESC")
            .unwrap();
        assert_eq!(r.rows()[0][0].as_text(), Some("Seiko"));
    }

    #[test]
    fn count_column_skips_nulls() {
        let mut db = Database::new("d");
        db.execute("CREATE TABLE t (a INTEGER, b INTEGER)").unwrap();
        db.execute("INSERT INTO t VALUES (1, NULL), (2, 5), (3, NULL)").unwrap();
        let r = db.query("SELECT COUNT(*), COUNT(b), SUM(b) FROM t").unwrap();
        assert_eq!(r.rows()[0][0], Value::Int(3));
        assert_eq!(r.rows()[0][1], Value::Int(1));
        assert_eq!(r.rows()[0][2], Value::Int(5));
    }

    #[test]
    fn aggregates_on_empty_input() {
        let mut db = Database::new("d");
        db.execute("CREATE TABLE t (a INTEGER)").unwrap();
        let r = db.query("SELECT COUNT(*), SUM(a), MIN(a), AVG(a) FROM t").unwrap();
        assert_eq!(r.rows()[0][0], Value::Int(0));
        assert!(r.rows()[0][1].is_null());
        assert!(r.rows()[0][2].is_null());
        assert!(r.rows()[0][3].is_null());
        // With GROUP BY there are no groups, hence no rows.
        let r = db.query("SELECT a, COUNT(*) FROM t GROUP BY a").unwrap();
        assert!(r.is_empty());
    }

    #[test]
    fn aggregate_errors() {
        let db = catalog();
        // Plain column outside GROUP BY.
        assert!(matches!(
            db.query("SELECT brand, COUNT(*) FROM watches"),
            Err(DbError::TypeMismatch { .. })
        ));
        // SUM(*) is invalid.
        assert!(db.query("SELECT SUM(*) FROM watches").is_err());
        // ORDER BY a non-grouped column.
        assert!(matches!(
            db.query("SELECT brand, COUNT(*) FROM watches GROUP BY brand ORDER BY price"),
            Err(DbError::TypeMismatch { .. })
        ));
        // Unknown column inside an aggregate.
        assert!(matches!(
            db.query("SELECT SUM(nope) FROM watches"),
            Err(DbError::UnknownColumn { .. })
        ));
    }

    #[test]
    fn aggregate_over_join() {
        let db = catalog();
        let r = db
            .query(
                "SELECT providers.name, COUNT(*) FROM watches \
                 JOIN providers ON watches.provider_id = providers.id \
                 GROUP BY providers.name ORDER BY providers.name",
            )
            .unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(r.rows()[0][0].as_text(), Some("TimeHouse"));
        assert_eq!(r.rows()[0][1], Value::Int(2));
        assert_eq!(r.rows()[1][0].as_text(), Some("WatchWorld"));
        assert_eq!(r.rows()[1][1], Value::Int(2));
    }

    #[test]
    fn select_distinct() {
        let db = catalog();
        let all = db.query("SELECT brand FROM watches").unwrap();
        assert_eq!(all.len(), 4);
        let distinct = db.query("SELECT DISTINCT brand FROM watches").unwrap();
        assert_eq!(distinct.len(), 3);
        // DISTINCT with ORDER BY keeps ordering.
        let r = db.query("SELECT DISTINCT brand FROM watches ORDER BY brand DESC").unwrap();
        let brands: Vec<_> = r.rows().iter().map(|row| row[0].render()).collect();
        assert_eq!(brands, ["Seiko", "Orient", "Casio"]);
        // DISTINCT over multi-column projections considers the tuple.
        let r = db.query("SELECT DISTINCT brand, case_material FROM watches").unwrap();
        assert_eq!(r.len(), 4); // Seiko appears with 2 materials
    }

    #[test]
    fn group_by_with_limit() {
        let db = catalog();
        let r = db
            .query("SELECT brand, COUNT(*) FROM watches GROUP BY brand ORDER BY brand LIMIT 2")
            .unwrap();
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn case_insensitive_table_and_column_names() {
        let db = catalog();
        let r = db.query("SELECT Brand FROM Watches WHERE BRAND = 'Casio'").unwrap();
        assert_eq!(r.len(), 1);
    }
}
