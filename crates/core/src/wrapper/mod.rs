//! Wrappers, one module per substrate (paper §2.4: "for Web pages, the
//! extraction rules are delegated to a Web wrapper, for databases to a
//! database extractor, and so on"): [`db`] runs SQL, [`xml`] XPath and
//! XQuery, [`web`] WebL and regex over web pages and plain-text files.
//! A [`Wrapper`] decides everything about its kind — languages, compile,
//! the column sink, pushdown, read set, introspection — and [`with`]
//! holds the one `match` on [`Connection`].

use std::fmt;
use std::sync::{Arc, OnceLock};

use s2s_minidb::SelectStmt;
use s2s_netsim::ChangeEvent;
use s2s_rdf::Iri;
use s2s_textmatch::Regex;
use s2s_webdoc::WeblProgram;
use s2s_xml::xpath::XPath;
use s2s_xml::xquery::XQuery;

use crate::bootstrap::SchemaSummary;
use crate::error::S2sError;
use crate::extract::Values;
use crate::mapping::{AttributeMapping, ExtractionRule};
use crate::query::ResolvedCondition;
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

    /// Pushes every value the rule yields into `values`; `None` when the
    /// rule is not one of this kind's (a mapping compiled under another
    /// registry whose source of that id is of another kind).
    fn run(&self, rule: &CompiledRule, values: &mut Values) -> Option<Result<(), S2sError>>;

    /// The `kept` rules of one source rewritten to evaluate the
    /// `conjuncts` this kind can prove equivalent to the mediator's
    /// filter, in `kept` order, with the conjuncts pushed; `None` when
    /// none is. `group` is every mapping of the source the query reads.
    fn push<'c>(
        &self,
        group: &[&AttributeMapping],
        kept: &[&AttributeMapping],
        conjuncts: &[&'c ResolvedCondition],
    ) -> Option<Pushed<'c>>;

    /// Hands `read` each source field a rule reads, the one its values
    /// come from first; `false`, handing none, when it may read any.
    fn reads<'r>(&self, _rule: &'r CompiledRule, _read: &mut dyn FnMut(&'r str)) -> bool {
        false
    }

    /// The native schema: fields with the rules that read them, and the
    /// record scenario the shape implies.
    fn introspect(&self, source: &str) -> Result<SchemaSummary, S2sError>;
}

/// Rewritten rules and the conjuncts they push.
pub(crate) type Pushed<'c> = (Vec<ExtractionRule>, Vec<&'c ResolvedCondition>);

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

/// The values `mapping`'s rule extracts from `connection`, copied once
/// from where the source keeps them into the column returned.
pub(crate) fn run(connection: &Connection, mapping: &AttributeMapping) -> Result<Values, S2sError> {
    with(connection, |w| {
        let mut values = Values::new();
        w.run(compiled_by(w, mapping)?, &mut values)
            .unwrap_or_else(|| Err(mismatch(w, mapping)))?;
        Ok(values)
    })
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

/// The field a pushed guard on `property` compares: the value field of
/// the first mapping of it in `group` whose read set is known.
fn value_field<'m>(
    w: &dyn Wrapper,
    group: &[&'m AttributeMapping],
    property: &Iri,
) -> Option<&'m str> {
    group.iter().filter(|m| m.property() == property).find_map(|m| {
        let mut first = None;
        let known = w.reads(compiled_by(w, m).ok()?, &mut |f| _ = first.get_or_insert(f));
        first.filter(|_| known)
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

    /// The values `rule` extracts from `connection`.
    pub(crate) fn extract(
        connection: &Connection,
        rule: ExtractionRule,
    ) -> Result<Vec<String>, S2sError> {
        Ok(run(connection, &mapping(rule))?.iter().map(String::from).collect())
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
        assert_eq!(run(&xml, &m).unwrap().len(), 2);
        let err = run(&db, &m).unwrap_err();
        assert_eq!(err.code(), "s2s::mapping::rule_source_mismatch");
        assert!(err.to_string().contains("`thing.product.brand`"), "{err}");
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
