//! Error type for XML parsing and XPath evaluation.

use std::error::Error;
use std::fmt;

/// An error from the XML parser or XPath compiler.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XmlError {
    /// Malformed XML.
    Parse {
        /// Byte offset of the problem.
        position: usize,
        /// Description.
        message: String,
    },
    /// Elements of a document, or `concat` calls of an XQuery return
    /// clause, nest deeper than the parser accepts.
    NestingTooDeep {
        /// Byte offset (into the document or the query) of the first
        /// element or `concat(` past the cap.
        position: usize,
        /// The cap ([`crate::parser::MAX_DEPTH`]).
        limit: usize,
    },
    /// A document longer than the parser accepts.
    TooLarge {
        /// Length of the input in bytes.
        len: usize,
        /// The cap ([`crate::parser::MAX_INPUT`]).
        limit: usize,
    },
    /// Malformed XPath expression.
    BadXPath {
        /// The path text.
        path: String,
        /// Description.
        message: String,
    },
}

impl fmt::Display for XmlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            XmlError::Parse { position, message } => {
                write!(f, "xml parse error at byte {position}: {message}")
            }
            XmlError::NestingTooDeep { position, limit } => {
                write!(f, "xml parse error at byte {position}: nested deeper than {limit} levels")
            }
            XmlError::TooLarge { len, limit } => {
                write!(f, "xml parse error: {len} bytes of input, more than {limit}")
            }
            XmlError::BadXPath { path, message } => {
                write!(f, "bad xpath `{path}`: {message}")
            }
        }
    }
}

impl Error for XmlError {}
