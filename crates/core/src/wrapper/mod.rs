//! Wrappers, one module per substrate (paper §2.4: "for Web pages, the
//! extraction rules are delegated to a Web wrapper, for databases to a
//! database extractor, and so on"): [`db`] runs SQL, [`xml`] XPath and
//! XQuery, [`web`] WebL and regex over web pages and plain-text files.
//! A [`Wrapper`] decides everything about its kind — languages, compile,
//! the column sink, the record filter, read set, introspection — and
//! [`with`] holds the one `match` on [`Connection`].

use std::fmt;
use std::sync::{Arc, OnceLock};

use s2s_minidb::{SelectStmt, SelectedColumn};
use s2s_netsim::ChangeEvent;
use s2s_textmatch::Regex;
use s2s_webdoc::WeblProgram;
use s2s_xml::xpath::XPath;
use s2s_xml::xquery::XQuery;

use crate::bootstrap::SchemaSummary;
use crate::error::S2sError;
use crate::extract::Values;
use crate::ledger::Unfiltered;
use crate::mapping::{AttributeMapping, ExtractionRule, RecordScenario};
use crate::planner::Fold;
use crate::source::{Connection, SourceKind};

mod db;
mod web;
mod xml;

/// A rule compiled to its executable form, `Arc`-shared so a copy of a
/// mapping is a pointer clone. `column` and `group` carry the values.
#[derive(Debug, Clone)]
pub(crate) enum CompiledRule {
    Sql { stmt: Arc<SelectStmt>, column: String },
    XPath(Arc<XPath>),
    XQuery(Arc<XQuery>),
    Webl(Arc<WeblProgram>),
    Regex { re: Arc<Regex>, group: usize },
}

/// A mapping's compiled rule, filled on first use and kept, error
/// included: an edit makes a new mapping, so nothing is invalidated.
/// Derived from the rule, so it takes no part in equality.
#[derive(Clone, Default)]
pub(crate) struct CompiledSlot(OnceLock<Result<CompiledRule, S2sError>>);

impl CompiledSlot {
    /// The kept compiled form, else `compile`'s, kept; `None`, keeping
    /// nothing, when `compile` does not take the rule.
    fn get(
        &self,
        compile: impl FnOnce() -> Option<Result<CompiledRule, S2sError>>,
    ) -> Option<Result<&CompiledRule, S2sError>> {
        if self.0.get().is_none() {
            _ = self.0.set(compile()?);
        }
        Some(self.0.get()?.as_ref().map_err(S2sError::clone))
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

/// What one substrate answers for the sources of its kind.
pub(crate) trait Wrapper {
    fn kind(&self) -> SourceKind;

    /// `None` when this kind does not run the rule's language (known
    /// before anything is parsed).
    fn compile(&self, rule: &ExtractionRule) -> Option<Result<CompiledRule, S2sError>>;

    /// Runs the rules of `mappings`, a source's, as this kind compiles
    /// them ([`compiled_by`]), those that share one record scope as one
    /// statement. Appends to `out`, per mapping in order, the values its
    /// rule yields or its error — a rule that does not compile, or is
    /// not one of this kind's (a mapping compiled under another registry
    /// whose source of that id is of another kind), fails alone. When
    /// `filter` binds a condition and the rules run as one statement
    /// whose columns line up record by record, only the records the
    /// condition holds for are read, each column numbered by them.
    fn run(
        &self,
        mappings: &[&AttributeMapping],
        filter: &mut Filter<'_>,
        out: &mut Vec<Result<Values, S2sError>>,
    ) -> Ran;

    /// Hands `read` each source field a rule reads, the one its values
    /// come from first; `false`, handing none, when it may read any.
    fn reads<'r>(&self, _rule: &'r CompiledRule, _read: &mut dyn FnMut(&'r str)) -> bool {
        false
    }

    /// The native schema: fields with the rules that read them, and the
    /// record scenario the shape implies.
    fn introspect(&self, source: &str) -> Result<SchemaSummary, S2sError>;
}

/// The condition bound to one source's record statement, folded
/// against its rules, and the buffers a filtered run uses, reused from
/// source to source.
#[derive(Default)]
pub(crate) struct Filter<'c> {
    pub(crate) fold: Fold<'c>,
    /// The kept records' numbers.
    ordinals: Vec<u32>,
    /// A SQL scan's columns, one per rule.
    columns: Vec<SelectedColumn>,
    /// A cell printed to be tested.
    printed: String,
    /// The rules one SQL scan reads, by position.
    group: Vec<usize>,
}

impl<'c> Filter<'c> {
    /// The records a filtered statement over `mappings` tests: every
    /// one (`Some(false)`), or only the first when every rule is
    /// single-record (`Some(true)`): a single-record source is its first
    /// record. `None` when single- and multi-record rules mix: one
    /// statement's columns do not line up with its records then.
    fn first_only(mappings: &[&AttributeMapping]) -> Option<bool> {
        let single = |m: &&&AttributeMapping| m.scenario() == RecordScenario::SingleRecord;
        let n = mappings.iter().filter(single).count();
        (n == 0 || n == mappings.len()).then_some(n > 0)
    }

    /// Numbers every column of `out` by the kept records: one
    /// allocation, shared by the columns.
    fn number(&self, out: &mut [Result<Values, S2sError>]) {
        let records: Arc<[u32]> = Arc::from(self.ordinals.as_slice());
        for values in out.iter_mut().flatten() {
            values.number(Arc::clone(&records));
        }
    }
}

/// What a wrapper's run did: the statements it ran and, when a filter
/// was bound, why it read the records unfiltered.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Ran {
    pub(crate) statements: usize,
    pub(crate) unfiltered: Option<Unfiltered>,
}

impl Ran {
    /// `statements` run, filtered when `filtered` and else, if `filter`
    /// bound a condition, unfiltered for `why`.
    fn new(statements: usize, filter: &Filter<'_>, filtered: bool, why: Unfiltered) -> Ran {
        let unfiltered = (filter.fold.is_bound() && !filtered).then_some(why);
        Ran { statements, unfiltered }
    }
}

/// Hands `f` the wrapper of `connection`'s kind.
pub(crate) fn with<R>(connection: &Connection, f: impl FnOnce(&dyn Wrapper) -> R) -> R {
    match connection {
        Connection::Database { db } => f(&db::Db(db)),
        Connection::Xml { document } => f(&xml::Xml(document)),
        Connection::Web { store, url } => f(&web::Web { store, url, html: true }),
        Connection::Text { store, url } => f(&web::Web { store, url, html: false }),
    }
}

/// `mapping`'s rule compiled for `connection`'s kind; a language the
/// kind does not run is [`S2sError::RuleSourceMismatch`], raised before
/// the rule is parsed.
#[cfg(test)]
pub(crate) fn compiled<'m>(
    connection: &Connection,
    mapping: &'m AttributeMapping,
) -> Result<&'m CompiledRule, S2sError> {
    with(connection, |w| compiled_by(w, mapping))
}

fn compiled_by<'m>(
    w: &dyn Wrapper,
    mapping: &'m AttributeMapping,
) -> Result<&'m CompiledRule, S2sError> {
    let compiled = mapping.compiled.get(|| w.compile(mapping.rule()));
    compiled.unwrap_or_else(|| Err(mismatch(w, mapping)))
}

fn mismatch(w: &dyn Wrapper, mapping: &AttributeMapping) -> S2sError {
    let (language, kind) = (mapping.rule().language(), w.kind());
    S2sError::RuleSourceMismatch {
        attribute: mapping.path().to_string(),
        message: format!("{language} rule cannot run against a {kind} source"),
    }
}

/// Runs the rules of `mappings`, a source's, against `connection`
/// ([`Wrapper::run`]) through `filter`: appends each one's values,
/// copied once from where the source keeps them into its column, or its
/// error to `out`.
pub(crate) fn run(
    connection: &Connection,
    mappings: &[&AttributeMapping],
    filter: &mut Filter<'_>,
    out: &mut Vec<Result<Values, S2sError>>,
) -> Ran {
    with(connection, |w| w.run(mappings, filter, out))
}

/// Whether one of `events` names a field `mapping`'s rule reads; every
/// event touches a rule whose read set is unknown or that does not compile.
pub(crate) fn touched_by(
    connection: &Connection,
    mapping: &AttributeMapping,
    events: &[ChangeEvent],
) -> bool {
    with(connection, |w| {
        let Ok(rule) = compiled_by(w, mapping) else { return true };
        let mut touched = false;
        let known =
            w.reads(rule, &mut |f| touched = touched || events.iter().any(|e| e.touches(f)));
        touched || !known
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::mapping::{MappingModule, RecordScenario};
    use s2s_minidb::Database;
    use s2s_owl::Ontology;
    use s2s_webdoc::WebStore;

    /// `rule` registered for `thing.product.brand` on source `S`.
    pub(crate) fn mapping(rule: ExtractionRule) -> AttributeMapping {
        let ontology = Ontology::builder("http://example.org/schema#")
            .class("Product", None)
            .unwrap()
            .datatype_property("brand", "Product", s2s_rdf::vocab::xsd::STRING)
            .unwrap()
            .build()
            .unwrap();
        let mut m = MappingModule::new();
        let brand = "thing.product.brand".parse().unwrap();
        m.register(&ontology, brand, rule, "S".into(), RecordScenario::MultiRecord).unwrap();
        let mapping = m.iter().next().unwrap().clone();
        mapping
    }

    /// The fields `rule` reads, space-separated; `None` for any.
    pub(crate) fn read_set(w: &dyn Wrapper, rule: ExtractionRule) -> Option<String> {
        let m = mapping(rule);
        let mut fields = Vec::new();
        let known = w.reads(compiled_by(w, &m).unwrap(), &mut |f| fields.push(f.to_string()));
        known.then(|| fields.join(" "))
    }

    /// The values `mapping`'s rule extracts from `connection`, run alone.
    pub(crate) fn run_one(
        connection: &Connection,
        mapping: &AttributeMapping,
    ) -> Result<Values, S2sError> {
        let mut out = Vec::new();
        run(connection, &[mapping], &mut Filter::default(), &mut out);
        out.pop().expect("one result per mapping")
    }

    /// The values `rule` extracts from `connection`.
    pub(crate) fn extract(
        connection: &Connection,
        rule: ExtractionRule,
    ) -> Result<Vec<String>, S2sError> {
        Ok(run_one(connection, &mapping(rule))?.iter().map(String::from).collect())
    }

    /// One source of each kind, each holding the brands Seiko and Casio.
    fn sources() -> [Connection; 4] {
        let mut db = Database::new("d");
        db.execute("CREATE TABLE w (id INTEGER PRIMARY KEY, brand TEXT)").unwrap();
        db.execute("INSERT INTO w VALUES (1, 'Seiko'), (2, 'Casio')").unwrap();
        let document = s2s_xml::parse("<c><w><b>Seiko</b></w><w><b>Casio</b></w></c>").unwrap();
        let mut web = WebStore::new();
        web.register_html(
            "http://shop/list",
            "<ul><li><b>Seiko</b></li><li><b>Casio</b></li></ul>",
        );
        web.register_text("file:///list.txt", "<b>Seiko</b>\n<b>Casio</b>\n");
        let store = Arc::new(web);
        [
            Connection::Database { db: Arc::new(db) },
            Connection::Xml { document: Arc::new(document) },
            Connection::Web { store: Arc::clone(&store), url: "http://shop/list".into() },
            Connection::Text { store, url: "file:///list.txt".into() },
        ]
    }

    /// Each language's rule for the brands, and a malformed one.
    fn rules() -> [(ExtractionRule, ExtractionRule, [SourceKind; 2]); 5] {
        use SourceKind::{Database, TextFile, WebPage, Xml};
        let sql = |query: &str| ExtractionRule::Sql { query: query.into(), column: "brand".into() };
        let webl = |program: &str| ExtractionRule::Webl { program: program.into() };
        let regex = |pattern: &str| ExtractionRule::TextRegex { pattern: pattern.into(), group: 1 };
        [
            (sql("SELECT brand FROM w ORDER BY id"), sql("SELECT FROM"), [Database, Database]),
            (
                ExtractionRule::XPath { path: "/c/w/b/text()".into() },
                ExtractionRule::XPath { path: "/c/[".into() },
                [Xml, Xml],
            ),
            (
                ExtractionRule::XQuery { query: "for $w in /c/w return $w/b/text()".into() },
                ExtractionRule::XQuery { query: "for in".into() },
                [Xml, Xml],
            ),
            (webl("var v = TagTexts(Text(PAGE), \"b\");"), webl("var = ;"), [WebPage, TextFile]),
            // A web page's regex reads the page's text, a file's its bytes.
            (regex("([A-Z][a-z]+)"), regex("(unclosed"), [WebPage, TextFile]),
        ]
    }

    /// Every (kind × language) pair: a compatible one yields the brands,
    /// an incompatible one the coded mismatch naming the attribute —
    /// also for a rule that would not compile, so the mismatch is
    /// raised first.
    #[test]
    fn every_kind_runs_its_languages_and_refuses_the_rest() {
        for connection in sources() {
            let kind = connection.kind();
            for (rule, malformed, runs_on) in rules() {
                let language = rule.language();
                if runs_on.contains(&kind) {
                    assert_eq!(
                        extract(&connection, rule).unwrap(),
                        ["Seiko", "Casio"],
                        "{language} on {kind}"
                    );
                    let err = extract(&connection, malformed).unwrap_err();
                    assert_ne!(
                        err.code(),
                        "s2s::mapping::rule_source_mismatch",
                        "{language} on {kind}"
                    );
                    continue;
                }
                for rule in [rule, malformed] {
                    let err = extract(&connection, rule).unwrap_err();
                    assert_eq!(
                        err.code(),
                        "s2s::mapping::rule_source_mismatch",
                        "{language} on {kind}"
                    );
                    let message = err.to_string();
                    assert!(message.contains("`thing.product.brand`"), "{message}");
                    assert!(
                        message.contains(&format!(
                            "{language} rule cannot run against a {kind} source"
                        )),
                        "{message}"
                    );
                }
            }
        }
    }

    /// A mapping belongs to no one registry: `ExtractorManager::extract`
    /// takes any, so a mapping run on one registry's XML source can be
    /// handed to another's database under the same id. Its kept XPath is
    /// then refused by the run with the same coded mismatch.
    #[test]
    fn a_rule_compiled_for_another_kind_is_refused_by_the_run() {
        let [db, xml, ..] = sources();
        let m = mapping(ExtractionRule::XPath { path: "/c/w/b/text()".into() });
        assert_eq!(run_one(&xml, &m).unwrap().len(), 2);
        let err = run_one(&db, &m).unwrap_err();
        assert_eq!(err.code(), "s2s::mapping::rule_source_mismatch");
        assert!(err.to_string().contains("`thing.product.brand`"), "{err}");
    }

    /// A source's rules run as one statement, yet each keeps what it
    /// gets alone: a rule that names an unknown column, reads a column
    /// its statement lacks, does not compile or is another kind's fails
    /// by itself, and its siblings' values are unchanged.
    #[test]
    fn one_failing_rule_leaves_its_siblings_alone() {
        let [db, xml, ..] = sources();
        let sql = |query: &str, column: &str| {
            mapping(ExtractionRule::Sql { query: query.into(), column: column.into() })
        };
        let xpath = |path: &str| mapping(ExtractionRule::XPath { path: path.into() });
        for (connection, rules, statements) in [
            (
                &db,
                vec![
                    sql("SELECT brand FROM w ORDER BY id", "brand"),
                    sql("SELECT nope FROM w ORDER BY id", "nope"),
                    sql("SELECT brand FROM w ORDER BY id", "nope"),
                    sql("SELECT FROM", "brand"),
                    xpath("/c/w/b/text()"),
                    sql("SELECT id, brand FROM w ORDER BY id", "id"),
                ],
                1,
            ),
            (
                &xml,
                vec![
                    xpath("/c/w/b/text()"),
                    xpath("/c/["),
                    sql("SELECT brand FROM w", "brand"),
                    xpath("/c/w/@id"),
                    xpath("/c/w/b"),
                ],
                1,
            ),
        ] {
            let mappings: Vec<&AttributeMapping> = rules.iter().collect();
            let mut together = Vec::new();
            let ran = run(connection, &mappings, &mut Filter::default(), &mut together);
            assert_eq!(ran, Ran { statements, unfiltered: None });
            let alone: Vec<_> = mappings.iter().map(|m| run_one(connection, m)).collect();
            assert_eq!(together, alone, "{}", connection.kind());
            let failed = together.iter().filter(|r| r.is_err()).count();
            assert_eq!(failed, if connection.kind() == SourceKind::Database { 4 } else { 2 });
        }
    }

    #[test]
    fn a_mismatched_rule_is_never_compiled() {
        let [db, ..] = sources();
        let m = mapping(ExtractionRule::XPath { path: "/c/w/b/text()".into() });
        assert!(compiled(&db, &m).is_err());
        let [_, xml, ..] = sources();
        assert!(
            matches!(compiled(&xml, &m), Ok(CompiledRule::XPath(_))),
            "the mismatch kept nothing"
        );
    }
}
