//! Error type for the relational engine.

use std::error::Error;
use std::fmt;

/// An error produced while parsing or executing SQL.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DbError {
    /// SQL syntax error.
    Syntax {
        /// Byte position in the statement.
        position: usize,
        /// Description.
        message: String,
    },
    /// Referenced table does not exist.
    UnknownTable {
        /// Table name.
        table: String,
    },
    /// Referenced column does not exist.
    UnknownColumn {
        /// Column name as written.
        column: String,
    },
    /// Table created twice.
    DuplicateTable {
        /// Table name.
        table: String,
    },
    /// Ambiguous unqualified column in a join.
    AmbiguousColumn {
        /// Column name.
        column: String,
    },
    /// Value count or type mismatch on insert/update.
    TypeMismatch {
        /// Description of the mismatch.
        message: String,
    },
    /// A primary-key constraint was violated.
    ConstraintViolation {
        /// Description.
        message: String,
    },
    /// A `WHERE` expression nests deeper than the parser accepts.
    NestingTooDeep {
        /// The cap ([`crate::sql::parser::MAX_EXPR_DEPTH`]).
        limit: usize,
    },
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::Syntax { position, message } => {
                write!(f, "sql syntax error at byte {position}: {message}")
            }
            DbError::UnknownTable { table } => write!(f, "unknown table `{table}`"),
            DbError::UnknownColumn { column } => write!(f, "unknown column `{column}`"),
            DbError::DuplicateTable { table } => write!(f, "table `{table}` already exists"),
            DbError::AmbiguousColumn { column } => write!(f, "ambiguous column `{column}`"),
            DbError::TypeMismatch { message } => write!(f, "type mismatch: {message}"),
            DbError::ConstraintViolation { message } => {
                write!(f, "constraint violation: {message}")
            }
            DbError::NestingTooDeep { limit } => {
                write!(f, "expression nested deeper than {limit} levels")
            }
        }
    }
}

impl Error for DbError {}
