//! # s2s-minidb
//!
//! A self-contained in-memory relational database engine. It plays the
//! role of the paper's *structured data sources*: the S2S mapping module
//! stores SQL extraction rules (paper §2.3.1 step 2: "For databases, the
//! clear option is to use SQL"), and the database extractor executes them
//! here.
//!
//! Supported SQL subset:
//!
//! * `CREATE TABLE t (col TYPE [PRIMARY KEY], …)` with types `INTEGER`,
//!   `REAL`, `TEXT`, `BOOLEAN`;
//! * `CREATE INDEX ON t (col)`;
//! * `INSERT INTO t [(cols)] VALUES (…), (…), …`;
//! * `SELECT cols|* FROM t [JOIN u ON a = b]* [WHERE expr]
//!   [ORDER BY col [ASC|DESC]] [LIMIT n]`;
//! * `UPDATE t SET col = value, … [WHERE expr]`;
//! * `DELETE FROM t [WHERE expr]`;
//! * expressions: comparisons, `AND`/`OR`/`NOT`, `LIKE` (with `%`/`_`),
//!   `IS [NOT] NULL`, parentheses — nested at most
//!   [`sql::parser::MAX_EXPR_DEPTH`] deep.
//!
//! Equality predicates on indexed columns use the index; everything else
//! scans.
//!
//! # Examples
//!
//! ```
//! use s2s_minidb::Database;
//!
//! # fn main() -> Result<(), s2s_minidb::DbError> {
//! let mut db = Database::new("catalog");
//! db.execute("CREATE TABLE watches (id INTEGER PRIMARY KEY, brand TEXT, price REAL)")?;
//! db.execute("INSERT INTO watches VALUES (1, 'Seiko', 129.99), (2, 'Casio', 59.5)")?;
//! let rows = db.query("SELECT brand FROM watches WHERE price < 100")?;
//! assert_eq!(rows.len(), 1);
//! assert_eq!(rows.rows()[0][0].as_text(), Some("Casio"));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod db;
pub mod error;
pub mod exec;
pub mod schema;
pub mod sql;
pub mod table;
pub mod value;

pub use db::{ColumnSink, Database, QueryResult, SelectedColumn, Selection};
pub use error::DbError;
pub use schema::{ColumnDef, TableSchema};
pub use sql::ast::{CmpOp, ColumnRef, Expr, Operand, SelectStmt};
pub use sql::render::sql_literal;
pub use value::{DataType, Value};
