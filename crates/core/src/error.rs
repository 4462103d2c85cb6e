//! The middleware error type.

use std::error::Error;
use std::fmt;

use s2s_minidb::DbError;
use s2s_netsim::NetError;
use s2s_owl::OwlError;
use s2s_rdf::RdfError;
use s2s_webdoc::WebdocError;
use s2s_xml::XmlError;

/// Whether a failed operation could plausibly succeed if repeated.
///
/// Drives the resilience layer: transient failures are worth a retry
/// or a failover to a replica; permanent ones (bad rules, missing
/// columns, protocol bugs) would fail identically everywhere.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureClass {
    /// A retry or a different replica could succeed.
    Transient,
    /// Retrying the same operation cannot help.
    Permanent,
}

impl std::fmt::Display for FailureClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FailureClass::Transient => "transient",
            FailureClass::Permanent => "permanent",
        })
    }
}

/// An error produced by the S2S middleware.
#[derive(Debug, Clone, PartialEq)]
pub enum S2sError {
    /// A data source id is not registered.
    UnknownSource {
        /// The id as given.
        id: String,
    },
    /// A source id was registered twice.
    DuplicateSource {
        /// The id.
        id: String,
    },
    /// A source id would mint its individuals' IRIs under the same path
    /// segment as an already registered one (ids are lower-cased and
    /// characters outside `[a-z0-9._-]` become `-`): their records would
    /// silently merge into one individual each.
    IriSegmentCollision {
        /// The id being registered.
        id: String,
        /// The registered id with the same segment.
        existing: String,
        /// The segment both mint under.
        segment: String,
    },
    /// A source mutation tried to swap the connection for one of a
    /// different kind (e.g. replacing a database with a web page),
    /// which would silently orphan every mapped extraction rule.
    MutationKindMismatch {
        /// The mutated source.
        id: String,
        /// The registered source kind.
        expected: String,
        /// The kind of the replacement connection.
        actual: String,
    },
    /// An attribute path has no mapping.
    UnmappedAttribute {
        /// The path text.
        attribute: String,
    },
    /// An extraction rule does not fit the source type (e.g. SQL rule on
    /// a web page).
    RuleSourceMismatch {
        /// The attribute being mapped.
        attribute: String,
        /// Explanation.
        message: String,
    },
    /// S2SQL syntax error.
    QuerySyntax {
        /// Byte position.
        position: usize,
        /// Description.
        message: String,
    },
    /// The S2SQL `WHERE` clause nests deeper than the parser's cap
    /// ([`crate::query::MAX_CONDITION_DEPTH`]).
    QueryNestingTooDeep {
        /// The cap.
        limit: usize,
    },
    /// The query references an unknown class or attribute.
    QuerySemantics {
        /// Description.
        message: String,
    },
    /// An ontology-layer error.
    Owl(OwlError),
    /// An RDF-layer error.
    Rdf(RdfError),
    /// A database error during extraction.
    Db(DbError),
    /// An XML error during extraction.
    Xml(XmlError),
    /// A web/WebL error during extraction.
    Webdoc(WebdocError),
    /// A simulated network failure.
    Net(NetError),
    /// The circuit breaker for a source is open: every endpoint was
    /// rejected without being called.
    CircuitOpen {
        /// The source whose endpoints are gated.
        source: String,
    },
    /// The query's deadline budget ran out while this source's exchange
    /// was still in flight (possibly mid-backoff). The partial answer is
    /// returned degraded; nothing further is attempted for the source.
    DeadlineExceeded {
        /// The source whose exchange exhausted the budget.
        source: String,
    },
    /// A text-regex rule asks for a capture group its pattern does not
    /// have; every match would silently contribute nothing.
    NoSuchRegexGroup {
        /// The rule's pattern.
        pattern: String,
        /// The group index the rule asks for.
        group: usize,
        /// How many capture groups the pattern has (group 0, the whole
        /// match, not counted).
        groups: usize,
    },
    /// Automatic mapping bootstrap failed for a source (empty schema,
    /// non-HTML web page, resolving a field that has no conflict, …).
    Bootstrap {
        /// The source being bootstrapped.
        source: String,
        /// Description.
        message: String,
    },
}

impl S2sError {
    /// Classifies the failure for the resilience layer.
    ///
    /// Transient: injected network failures a retry could dodge
    /// ([`NetError::is_transient`]) and open circuit breakers (a later
    /// call after the cooldown may be admitted). Everything else —
    /// wrapper errors, bad rules, unknown sources, protocol bugs — is
    /// permanent: replicas hold the same data and would fail the same
    /// way. An exhausted deadline budget is also permanent: the budget
    /// is gone, so neither a retry nor a replica can fit inside it.
    pub fn failure_class(&self) -> FailureClass {
        match self {
            S2sError::Net(e) if e.is_transient() => FailureClass::Transient,
            S2sError::CircuitOpen { .. } => FailureClass::Transient,
            _ => FailureClass::Permanent,
        }
    }

    /// A stable machine-readable diagnostic code, `s2s::` namespaced —
    /// the miette `#[diagnostic(code(...))]` convention without the
    /// dependency. Codes are part of the public contract: tools may
    /// match on them, so they never change meaning.
    pub fn code(&self) -> &'static str {
        match self {
            S2sError::UnknownSource { .. } => "s2s::source::unknown",
            S2sError::DuplicateSource { .. } => "s2s::source::duplicate",
            S2sError::IriSegmentCollision { .. } => "s2s::source::iri_segment_collision",
            S2sError::MutationKindMismatch { .. } => "s2s::source::kind_mismatch",
            S2sError::UnmappedAttribute { .. } => "s2s::mapping::unmapped_attribute",
            S2sError::RuleSourceMismatch { .. } => "s2s::mapping::rule_source_mismatch",
            S2sError::QuerySyntax { .. } => "s2s::query::syntax",
            S2sError::QueryNestingTooDeep { .. } => "s2s::query::nesting_too_deep",
            S2sError::QuerySemantics { .. } => "s2s::query::semantics",
            S2sError::Owl(_) => "s2s::owl",
            S2sError::Rdf(RdfError::NestingTooDeep { .. }) => "s2s::rdf::nesting_too_deep",
            S2sError::Rdf(_) => "s2s::rdf",
            S2sError::Db(DbError::NestingTooDeep { .. }) => "s2s::db::nesting_too_deep",
            S2sError::Db(_) => "s2s::db",
            S2sError::Xml(XmlError::NestingTooDeep { .. }) => "s2s::xml::nesting_too_deep",
            S2sError::Xml(_) => "s2s::xml",
            S2sError::Webdoc(WebdocError::NestingTooDeep { .. }) => "s2s::webl::nesting_too_deep",
            S2sError::Webdoc(_) => "s2s::webdoc",
            S2sError::Net(_) => "s2s::net",
            S2sError::CircuitOpen { .. } => "s2s::resilience::circuit_open",
            S2sError::DeadlineExceeded { .. } => "s2s::resilience::deadline_exceeded",
            S2sError::NoSuchRegexGroup { .. } => "s2s::regex::no_such_group",
            S2sError::Bootstrap { .. } => "s2s::bootstrap::failed",
        }
    }

    /// Actionable help text for the diagnostic, when the error has a
    /// standard remedy — the miette `#[diagnostic(help(...))]`
    /// convention without the dependency.
    pub fn help(&self) -> Option<&'static str> {
        match self {
            S2sError::UnknownSource { .. } => {
                Some("register the source first with S2s::register_source")
            }
            S2sError::IriSegmentCollision { .. } => Some(
                "choose an id that differs from the registered one in more than letter case and \
                 in characters outside [A-Za-z0-9._-]",
            ),
            S2sError::UnmappedAttribute { .. } => Some(
                "map the attribute with S2s::register_attribute, or bootstrap the source's \
                 schema with S2s::register_bootstrapped",
            ),
            S2sError::RuleSourceMismatch { .. } => Some(
                "match the rule kind to the source kind: Sql for databases, XPath/XQuery for \
                 XML, Webl for web pages, TextRegex for text files",
            ),
            S2sError::QueryNestingTooDeep { .. } => Some(
                "flatten the query's WHERE clause: drop redundant parentheses and NOTs, or split \
                 a long AND/OR chain into balanced groups",
            ),
            S2sError::Db(DbError::NestingTooDeep { .. }) => Some(
                "flatten the rule's WHERE clause: drop redundant parentheses and NOTs, or split \
                 a long AND/OR chain into balanced groups",
            ),
            S2sError::Xml(XmlError::NestingTooDeep { .. }) => Some(
                "the source's document nests elements, or the XQuery rule nests concat calls, \
                 deeper than the parser's cap; have the provider flatten the export, or \
                 flatten the rule's concat into one call with more arguments",
            ),
            S2sError::Webdoc(WebdocError::NestingTooDeep { .. }) => {
                Some("flatten the WebL rule: bind nested sub-expressions to variables with `var`")
            }
            S2sError::Webdoc(WebdocError::BadRegex { .. }) => Some(
                "fix the pattern at the byte the message names; one refused for its thread table \
                 has too many capture groups for its alternatives: write `(?:...)` for a group \
                 the rule does not extract, or split the alternation over several rules",
            ),
            S2sError::Rdf(RdfError::NestingTooDeep { .. }) => Some(
                "name the nested blank nodes (`_:b1`) and state their properties as top-level \
                 statements",
            ),
            S2sError::NoSuchRegexGroup { .. } => Some(
                "use a group the pattern has: 0 is the whole match, 1 up to the capture-group \
                 count named in the message its parenthesised groups, left to right; `(?:...)` \
                 groups are not counted",
            ),
            S2sError::Bootstrap { .. } => Some(
                "inspect the BootstrapReport's conflicts; resolve ambiguous fields with \
                 BootstrapReport::resolve or add mappings with BootstrapReport::add_override",
            ),
            _ => None,
        }
    }
}

impl fmt::Display for S2sError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            S2sError::UnknownSource { id } => write!(f, "unknown data source `{id}`"),
            S2sError::DuplicateSource { id } => write!(f, "data source `{id}` already registered"),
            S2sError::IriSegmentCollision { id, existing, segment } => write!(
                f,
                "data source `{id}` would mint its individuals under the IRI segment \
                 `{segment}`, which `{existing}` already does"
            ),
            S2sError::MutationKindMismatch { id, expected, actual } => {
                write!(f, "mutation of `{id}` must keep kind {expected}, got {actual}")
            }
            S2sError::UnmappedAttribute { attribute } => {
                write!(f, "attribute `{attribute}` has no mapping")
            }
            S2sError::RuleSourceMismatch { attribute, message } => {
                write!(f, "rule/source mismatch for `{attribute}`: {message}")
            }
            S2sError::QuerySyntax { position, message } => {
                write!(f, "s2sql syntax error at byte {position}: {message}")
            }
            S2sError::QueryNestingTooDeep { limit } => {
                write!(f, "s2sql WHERE clause nested deeper than {limit} levels")
            }
            S2sError::QuerySemantics { message } => write!(f, "s2sql semantic error: {message}"),
            S2sError::Owl(e) => write!(f, "ontology error: {e}"),
            S2sError::Rdf(e) => write!(f, "rdf error: {e}"),
            S2sError::Db(e) => write!(f, "database error: {e}"),
            S2sError::Xml(e) => write!(f, "xml error: {e}"),
            S2sError::Webdoc(e) => write!(f, "web error: {e}"),
            S2sError::Net(e) => write!(f, "network error: {e}"),
            S2sError::CircuitOpen { source } => {
                write!(f, "circuit breaker open for source `{source}`")
            }
            S2sError::DeadlineExceeded { source } => {
                write!(f, "deadline budget exhausted during exchange with source `{source}`")
            }
            S2sError::NoSuchRegexGroup { pattern, group, groups } => {
                write!(f, "regex rule asks for group {group} of `{pattern}`, which has {groups}")
            }
            S2sError::Bootstrap { source, message } => {
                write!(f, "bootstrap failed for source `{source}`: {message}")
            }
        }
    }
}

impl Error for S2sError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            S2sError::Owl(e) => Some(e),
            S2sError::Rdf(e) => Some(e),
            S2sError::Db(e) => Some(e),
            S2sError::Xml(e) => Some(e),
            S2sError::Webdoc(e) => Some(e),
            S2sError::Net(e) => Some(e),
            _ => None,
        }
    }
}

impl From<OwlError> for S2sError {
    fn from(e: OwlError) -> Self {
        S2sError::Owl(e)
    }
}

impl From<RdfError> for S2sError {
    fn from(e: RdfError) -> Self {
        S2sError::Rdf(e)
    }
}

impl From<DbError> for S2sError {
    fn from(e: DbError) -> Self {
        S2sError::Db(e)
    }
}

impl From<XmlError> for S2sError {
    fn from(e: XmlError) -> Self {
        S2sError::Xml(e)
    }
}

impl From<WebdocError> for S2sError {
    fn from(e: WebdocError) -> Self {
        S2sError::Webdoc(e)
    }
}

impl From<NetError> for S2sError {
    fn from(e: NetError) -> Self {
        S2sError::Net(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn network_failures_classify_transient() {
        let unreachable = S2sError::Net(NetError::Unreachable { endpoint: "e".into() });
        let timeout = S2sError::Net(NetError::Timeout { endpoint: "e".into(), timeout_us: 1 });
        assert_eq!(unreachable.failure_class(), FailureClass::Transient);
        assert_eq!(timeout.failure_class(), FailureClass::Transient);
        let open = S2sError::CircuitOpen { source: "s".into() };
        assert_eq!(open.failure_class(), FailureClass::Transient);
    }

    #[test]
    fn logic_failures_classify_permanent() {
        let bad_frame = S2sError::Net(NetError::BadFrame { message: "m".into() });
        assert_eq!(bad_frame.failure_class(), FailureClass::Permanent);
        let unknown = S2sError::UnknownSource { id: "x".into() };
        assert_eq!(unknown.failure_class(), FailureClass::Permanent);
        let unmapped = S2sError::UnmappedAttribute { attribute: "a.b".into() };
        assert_eq!(unmapped.failure_class(), FailureClass::Permanent);
        let expired = S2sError::DeadlineExceeded { source: "x".into() };
        assert_eq!(expired.failure_class(), FailureClass::Permanent);
        let bootstrap = S2sError::Bootstrap { source: "x".into(), message: "m".into() };
        assert_eq!(bootstrap.failure_class(), FailureClass::Permanent);
    }

    #[test]
    fn diagnostics_carry_stable_codes_and_help() {
        let bootstrap = S2sError::Bootstrap { source: "DB".into(), message: "empty".into() };
        assert_eq!(bootstrap.code(), "s2s::bootstrap::failed");
        assert!(bootstrap.help().unwrap().contains("BootstrapReport::resolve"));

        let unmapped = S2sError::UnmappedAttribute { attribute: "thing.x".into() };
        assert_eq!(unmapped.code(), "s2s::mapping::unmapped_attribute");
        assert!(unmapped.help().unwrap().contains("register_bootstrapped"));

        // The substrate parsers' nesting caps are coded on their own.
        let deep_sql = S2sError::Db(DbError::NestingTooDeep { limit: 250 });
        assert_eq!(deep_sql.code(), "s2s::db::nesting_too_deep");
        assert!(deep_sql.help().unwrap().contains("WHERE"));
        let deep_xml = S2sError::Xml(XmlError::NestingTooDeep { position: 9, limit: 250 });
        assert_eq!(deep_xml.code(), "s2s::xml::nesting_too_deep");
        assert!(deep_xml.help().unwrap().contains("flatten"));

        let deep_query = S2sError::QueryNestingTooDeep { limit: 250 };
        assert_eq!(deep_query.code(), "s2s::query::nesting_too_deep");
        assert!(deep_query.help().unwrap().contains("WHERE"));
        let deep_webl = S2sError::Webdoc(WebdocError::NestingTooDeep { line: 1, limit: 250 });
        assert_eq!(deep_webl.code(), "s2s::webl::nesting_too_deep");
        assert!(deep_webl.help().unwrap().contains("var"));
        let deep_turtle = S2sError::Rdf(RdfError::NestingTooDeep { line: 1, limit: 250 });
        assert_eq!(deep_turtle.code(), "s2s::rdf::nesting_too_deep");
        assert!(deep_turtle.help().unwrap().contains("blank nodes"));

        // Errors without a standard remedy have a code but no help.
        let net = S2sError::Net(NetError::BadFrame { message: "m".into() });
        assert_eq!(net.code(), "s2s::net");
        assert!(net.help().is_none());
    }
}
