//! Compiled extraction rules.
//!
//! Compiling an extraction rule — the regex NFA, the XPath/XQuery
//! parse, the WebL program, the SQL statement — is work to do once, not
//! per task per query: mappings are stable (the paper: they "should not
//! need substantial maintenance after being created"), so the compiled
//! form lasts as long as its [`crate::mapping::AttributeMapping`], which
//! compiles it on first use and keeps it. A registration or an edit
//! makes a new mapping, so there is nothing to invalidate.
//!
//! A malformed rule keeps its error, and every query that runs the rule
//! reports it again.

use std::fmt;
use std::sync::{Arc, OnceLock};

use s2s_minidb::{Database, SelectStmt};
use s2s_textmatch::Regex;
use s2s_webdoc::WeblProgram;
use s2s_xml::xpath::XPath;
use s2s_xml::xquery::XQuery;

use crate::error::S2sError;
use crate::mapping::ExtractionRule;

/// A rule compiled to its executable form, with the parameters it runs
/// under. Variants are `Arc`-shared so a copy of a mapping is a pointer
/// clone.
#[derive(Debug, Clone)]
pub(crate) enum CompiledRule {
    /// A parsed SQL SELECT and the result column carrying the values.
    Sql {
        /// The statement.
        stmt: Arc<SelectStmt>,
        /// Which result column holds the attribute values.
        column: String,
    },
    /// A parsed XPath expression.
    XPath(Arc<XPath>),
    /// A parsed XQuery FLWOR expression.
    XQuery(Arc<XQuery>),
    /// A parsed WebL program.
    Webl(Arc<WeblProgram>),
    /// A compiled regular expression and the capture group carrying the
    /// value (one the pattern has).
    Regex {
        /// The pattern.
        re: Arc<Regex>,
        /// Capture group index (0 = whole match).
        group: usize,
    },
}

/// A mapping's compiled rule, filled on first use. Derived from the
/// rule, so it takes no part in equality.
#[derive(Clone, Default)]
pub(crate) struct CompiledSlot(OnceLock<Result<CompiledRule, S2sError>>);

impl CompiledSlot {
    /// The compiled form of `rule`, compiling it on the first call; a
    /// compile error is kept and returned again on every call.
    pub(crate) fn get(&self, rule: &ExtractionRule) -> Result<&CompiledRule, S2sError> {
        self.0.get_or_init(|| compile(rule)).as_ref().map_err(S2sError::clone)
    }
}

impl PartialEq for CompiledSlot {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl fmt::Debug for CompiledSlot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(if self.0.get().is_some() { "compiled" } else { "not compiled" })
    }
}

fn compile(rule: &ExtractionRule) -> Result<CompiledRule, S2sError> {
    match rule {
        ExtractionRule::Sql { query, column } => Ok(CompiledRule::Sql {
            stmt: Arc::new(Database::prepare_select(query)?),
            column: column.clone(),
        }),
        ExtractionRule::XPath { path } => Ok(CompiledRule::XPath(Arc::new(XPath::new(path)?))),
        ExtractionRule::XQuery { query } => Ok(CompiledRule::XQuery(Arc::new(XQuery::new(query)?))),
        ExtractionRule::Webl { program } => {
            Ok(CompiledRule::Webl(Arc::new(WeblProgram::parse(program)?)))
        }
        ExtractionRule::TextRegex { pattern, group } => {
            let re = Regex::new(pattern).map_err(|e| {
                S2sError::Webdoc(s2s_webdoc::WebdocError::BadRegex {
                    pattern: pattern.clone(),
                    message: e.to_string(),
                })
            })?;
            if *group > re.capture_count() {
                return Err(S2sError::NoSuchRegexGroup {
                    pattern: pattern.clone(),
                    group: *group,
                    groups: re.capture_count(),
                });
            }
            Ok(CompiledRule::Regex { re: Arc::new(re), group: *group })
        }
    }
}
