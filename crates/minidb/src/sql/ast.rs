//! SQL abstract syntax.

use crate::value::{DataType, Value};

/// A parsed SQL statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// `CREATE TABLE name (col TYPE [PRIMARY KEY], …)`.
    CreateTable {
        /// Table name.
        name: String,
        /// Column definitions: `(name, type, primary_key)`.
        columns: Vec<(String, DataType, bool)>,
    },
    /// `CREATE INDEX ON table (column)`.
    CreateIndex {
        /// Table name.
        table: String,
        /// Column name.
        column: String,
    },
    /// `INSERT INTO table [(cols)] VALUES (…), …`.
    Insert {
        /// Table name.
        table: String,
        /// Explicit column list, if given.
        columns: Option<Vec<String>>,
        /// Row tuples.
        rows: Vec<Vec<Value>>,
    },
    /// A `SELECT` query.
    Select(SelectStmt),
    /// `UPDATE table SET col = value, … [WHERE expr]`.
    Update {
        /// Table name.
        table: String,
        /// Assignments.
        sets: Vec<(String, Value)>,
        /// Optional filter.
        predicate: Option<Expr>,
    },
    /// `DELETE FROM table [WHERE expr]`.
    Delete {
        /// Table name.
        table: String,
        /// Optional filter.
        predicate: Option<Expr>,
    },
}

/// A `SELECT` statement.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectStmt {
    /// Whether `SELECT DISTINCT` was requested.
    pub distinct: bool,
    /// Projected items; empty means `*`.
    pub projection: Vec<SelectItem>,
    /// The base table.
    pub table: String,
    /// `JOIN other ON left = right` clauses, applied in order.
    pub joins: Vec<JoinClause>,
    /// Optional `WHERE` predicate.
    pub predicate: Option<Expr>,
    /// Optional `GROUP BY` column.
    pub group_by: Option<ColumnRef>,
    /// Optional `ORDER BY`.
    pub order_by: Option<(ColumnRef, OrderDir)>,
    /// Optional `LIMIT`.
    pub limit: Option<usize>,
}

impl SelectStmt {
    /// Whether any projection item is an aggregate.
    pub fn has_aggregates(&self) -> bool {
        self.projection.iter().any(|i| matches!(i, SelectItem::Aggregate { .. }))
    }

    /// Whether `self` and `other` select the same rows in the same order:
    /// equal but for their projection, which neither reshapes. A
    /// `DISTINCT`, aggregate or grouped statement shares with none, not
    /// even itself. [`crate::Database::select`] scans such
    /// statements once.
    pub fn shares_rows(&self, other: &SelectStmt) -> bool {
        let plain = |s: &SelectStmt| !s.distinct && s.group_by.is_none() && !s.has_aggregates();
        plain(self)
            && plain(other)
            && self.table == other.table
            && self.joins == other.joins
            && match (&self.predicate, &other.predicate) {
                (Some(a), Some(b)) => a.same_as(b),
                (a, b) => a.is_none() && b.is_none(),
            }
            && self.order_by == other.order_by
            && self.limit == other.limit
    }
}

impl Expr {
    /// Whether `self` and `other` are one predicate, their literals
    /// written alike. `==` compares literals in the index order, where an
    /// integer past 2^53 equals a `REAL` near it that a row compares
    /// otherwise.
    fn same_as(&self, other: &Expr) -> bool {
        let same_literal = |a: &Value, b: &Value| match (a, b) {
            (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
            _ => std::mem::discriminant(a) == std::mem::discriminant(b) && a == b,
        };
        match (self, other) {
            (
                Expr::Compare { left, op, right: Operand::Literal(a) },
                Expr::Compare { left: l, op: o, right: Operand::Literal(b) },
            ) => left == l && op == o && same_literal(a, b),
            (Expr::And(a, b), Expr::And(x, y)) | (Expr::Or(a, b), Expr::Or(x, y)) => {
                a.same_as(x) && b.same_as(y)
            }
            (Expr::Not(a), Expr::Not(x)) => a.same_as(x),
            // No literal below: `==` is exact.
            (Expr::Compare { right: Operand::Column(_), .. }, _)
            | (Expr::Like { .. } | Expr::IsNull { .. }, _) => self == other,
            _ => false,
        }
    }
}

/// One item of a SELECT projection.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// A plain column reference.
    Column(ColumnRef),
    /// An aggregate call, e.g. `COUNT(*)` or `SUM(price)`.
    Aggregate {
        /// The aggregate function.
        func: AggFunc,
        /// The argument column; `None` is `*` (COUNT only).
        arg: Option<ColumnRef>,
    },
}

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// `COUNT` — rows (`*`) or non-NULL values (column).
    Count,
    /// `SUM` of numeric values; NULL on empty input.
    Sum,
    /// `AVG` of numeric values; NULL on empty input.
    Avg,
    /// Minimum by SQL ordering, NULLs skipped.
    Min,
    /// Maximum by SQL ordering, NULLs skipped.
    Max,
}

impl AggFunc {
    /// Lowercase display/result-column name.
    pub fn name(self) -> &'static str {
        match self {
            AggFunc::Count => "count",
            AggFunc::Sum => "sum",
            AggFunc::Avg => "avg",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
        }
    }
}

/// An inner-join clause.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinClause {
    /// Joined table.
    pub table: String,
    /// Left side of the equi-join condition.
    pub left: ColumnRef,
    /// Right side of the equi-join condition.
    pub right: ColumnRef,
}

/// A possibly-qualified column reference (`brand` or `watches.brand`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnRef {
    /// Optional table qualifier.
    pub table: Option<String>,
    /// Column name.
    pub column: String,
}

impl ColumnRef {
    /// Unqualified reference.
    pub fn new(column: impl Into<String>) -> Self {
        ColumnRef { table: None, column: column.into() }
    }

    /// Qualified reference.
    pub fn qualified(table: impl Into<String>, column: impl Into<String>) -> Self {
        ColumnRef { table: Some(table.into()), column: column.into() }
    }
}

impl std::fmt::Display for ColumnRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.table {
            Some(t) => write!(f, "{t}.{}", self.column),
            None => write!(f, "{}", self.column),
        }
    }
}

/// Sort direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OrderDir {
    /// Ascending (default).
    Asc,
    /// Descending.
    Desc,
}

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `!=` / `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

/// A boolean predicate expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// `column op literal` or `column op column`.
    Compare {
        /// Left-hand column.
        left: ColumnRef,
        /// Operator.
        op: CmpOp,
        /// Right-hand side.
        right: Operand,
    },
    /// `column LIKE 'pattern'`.
    Like {
        /// Column tested.
        column: ColumnRef,
        /// The `%`/`_` pattern.
        pattern: String,
        /// Whether this is `NOT LIKE`.
        negated: bool,
    },
    /// `column IS NULL` / `IS NOT NULL`.
    IsNull {
        /// Column tested.
        column: ColumnRef,
        /// Whether this is `IS NOT NULL`.
        negated: bool,
    },
    /// Conjunction.
    And(Box<Expr>, Box<Expr>),
    /// Disjunction.
    Or(Box<Expr>, Box<Expr>),
    /// Negation.
    Not(Box<Expr>),
}

/// The right-hand side of a comparison.
#[derive(Debug, Clone, PartialEq)]
pub enum Operand {
    /// A literal value.
    Literal(Value),
    /// Another column.
    Column(ColumnRef),
}
