//! Error type for the unstructured-source substrate.

use std::error::Error;
use std::fmt;

/// An error from HTML processing, the web store, or the WebL interpreter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WebdocError {
    /// A URL was requested that is not registered in the simulated web.
    UrlNotFound {
        /// The requested URL.
        url: String,
    },
    /// WebL program syntax error.
    WeblSyntax {
        /// 1-based line.
        line: usize,
        /// Description.
        message: String,
    },
    /// A WebL expression nests deeper than the parser's cap
    /// ([`crate::webl::MAX_EXPR_DEPTH`]).
    NestingTooDeep {
        /// 1-based line.
        line: usize,
        /// The cap.
        limit: usize,
    },
    /// WebL runtime error (bad index, type mismatch, undefined variable).
    WeblRuntime {
        /// Description.
        message: String,
    },
    /// A regular expression inside a WebL program failed to compile.
    BadRegex {
        /// The pattern.
        pattern: String,
        /// Underlying message.
        message: String,
    },
}

impl fmt::Display for WebdocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WebdocError::UrlNotFound { url } => write!(f, "url not found: {url}"),
            WebdocError::WeblSyntax { line, message } => {
                write!(f, "webl syntax error at line {line}: {message}")
            }
            WebdocError::NestingTooDeep { line, limit } => {
                write!(f, "webl expression at line {line} nested deeper than {limit} levels")
            }
            WebdocError::WeblRuntime { message } => write!(f, "webl runtime error: {message}"),
            WebdocError::BadRegex { pattern, message } => {
                write!(f, "bad regex `{pattern}`: {message}")
            }
        }
    }
}

impl Error for WebdocError {}
