//! Error type shared by the RDF model and parsers.

use std::error::Error;
use std::fmt;

/// An error produced while constructing RDF terms or parsing a
/// serialization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RdfError {
    /// An IRI failed validation.
    InvalidIri {
        /// The offending IRI text.
        iri: String,
        /// Why it was rejected.
        reason: &'static str,
    },
    /// A blank-node label failed validation.
    InvalidBlankNode {
        /// The offending label.
        label: String,
    },
    /// A language tag failed validation.
    InvalidLanguageTag {
        /// The offending tag.
        tag: String,
    },
    /// A syntax error while parsing N-Triples or Turtle.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Description of the problem.
        message: String,
    },
    /// Turtle anonymous blank nodes (`[ … [ … ] ]`) nest deeper than the
    /// parser's cap ([`crate::turtle::MAX_NESTING`]).
    NestingTooDeep {
        /// 1-based line number.
        line: usize,
        /// The cap.
        limit: usize,
    },
    /// A prefixed name used an undeclared prefix.
    UnknownPrefix {
        /// The undeclared prefix (without the colon).
        prefix: String,
        /// 1-based line number.
        line: usize,
    },
}

impl fmt::Display for RdfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RdfError::InvalidIri { iri, reason } => write!(f, "invalid IRI `{iri}`: {reason}"),
            RdfError::InvalidBlankNode { label } => {
                write!(f, "invalid blank node label `{label}`")
            }
            RdfError::InvalidLanguageTag { tag } => write!(f, "invalid language tag `{tag}`"),
            RdfError::Parse { line, message } => write!(f, "parse error at line {line}: {message}"),
            RdfError::NestingTooDeep { line, limit } => {
                write!(f, "blank nodes at line {line} nested deeper than {limit} levels")
            }
            RdfError::UnknownPrefix { prefix, line } => {
                write!(f, "unknown prefix `{prefix}:` at line {line}")
            }
        }
    }
}

impl Error for RdfError {}
