//! The Mapping Module (paper §2.3).
//!
//! Mapping is "the result of information crossing between the ontology
//! schema and the data sources". It is keyed on **attributes** (not
//! classes), identified by ontology paths (Fig. 4), and performed in the
//! three steps of Fig. 3:
//!
//! 1. **attribute naming** — pick the unique attribute id/path,
//! 2. **extraction rules** — the per-source-type rule code,
//! 3. **attribute mapping** — associate id → (rule, source id), e.g.
//!    `thing.product.brand = watch.webl, wpage_81`.
//!
//! §2.3 also distinguishes the two record scenarios: a source may hold
//! one record (a product page) or *n* records (a product database);
//! [`RecordScenario`] captures that and drives how extracted values are
//! grouped into instances.

use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::sync::Arc;

use s2s_owl::paths::ResolvedAttribute;
use s2s_owl::{AttributePath, Ontology};
use s2s_rdf::Iri;

use crate::error::S2sError;
use crate::source::SourceId;
use crate::wrapper::CompiledSlot;

/// An extraction rule, written in the language fitting the source type
/// (paper §2.3.1 step 2: SQL for databases, XPath for XML, WebL for web
/// pages; we add anchored regular expressions for plain text).
#[derive(Debug, Clone, PartialEq)]
pub enum ExtractionRule {
    /// A SQL query; the named column of the result carries the values.
    Sql {
        /// The query text.
        query: String,
        /// Which result column holds the attribute values.
        column: String,
    },
    /// An XPath expression; each match contributes one value.
    XPath {
        /// The path text.
        path: String,
    },
    /// An XQuery-lite FLWOR query (see [`s2s_xml::xquery`]); each
    /// returned string contributes one value.
    XQuery {
        /// The query text.
        query: String,
    },
    /// A WebL program; the final value (list → many values) is the
    /// extraction result.
    Webl {
        /// The program source.
        program: String,
    },
    /// A regular expression for plain text; `group` selects the capture
    /// group carrying the value, one value per match.
    TextRegex {
        /// The pattern.
        pattern: String,
        /// Capture group index (0 = whole match).
        group: usize,
    },
}

impl ExtractionRule {
    /// The rule text (used for wire-size accounting).
    pub fn text(&self) -> &str {
        match self {
            ExtractionRule::Sql { query, .. } => query,
            ExtractionRule::XPath { path } => path,
            ExtractionRule::XQuery { query } => query,
            ExtractionRule::Webl { program } => program,
            ExtractionRule::TextRegex { pattern, .. } => pattern,
        }
    }

    /// A short language label for display.
    pub fn language(&self) -> &'static str {
        match self {
            ExtractionRule::Sql { .. } => "sql",
            ExtractionRule::XPath { .. } => "xpath",
            ExtractionRule::XQuery { .. } => "xquery",
            ExtractionRule::Webl { .. } => "webl",
            ExtractionRule::TextRegex { .. } => "regex",
        }
    }
}

/// One-record vs n-record source scenario (paper §2.3: "data sources
/// might have one data record […] or might have n data records").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordScenario {
    /// The source describes one record; every rule yields at most one
    /// value and all attributes belong to the same single instance.
    SingleRecord,
    /// The source holds many records; rules yield aligned value lists
    /// (the i-th values of all attributes belong to record i).
    MultiRecord,
}

/// A completed attribute mapping (paper Fig. 3 output):
/// `attribute id = rule, source id`. It compiles its rule on first use
/// and keeps the compiled form for as long as it lives.
#[derive(Debug, Clone, PartialEq)]
pub struct AttributeMapping {
    path: AttributePath,
    resolved: ResolvedAttribute,
    rule: ExtractionRule,
    source: SourceId,
    scenario: RecordScenario,
    /// The rule compiled by its source kind's wrapper on first use.
    pub(crate) compiled: CompiledSlot,
}

impl AttributeMapping {
    /// The attribute path (unique id).
    pub fn path(&self) -> &AttributePath {
        &self.path
    }

    /// The ontology class the attribute belongs to.
    pub fn class(&self) -> &Iri {
        &self.resolved.class
    }

    /// The ontology property the attribute maps to.
    pub fn property(&self) -> &Iri {
        &self.resolved.property
    }

    /// The extraction rule.
    pub fn rule(&self) -> &ExtractionRule {
        &self.rule
    }

    /// The data source id.
    pub fn source(&self) -> &SourceId {
        &self.source
    }

    /// The record scenario.
    pub fn scenario(&self) -> RecordScenario {
        self.scenario
    }

    /// A copy of this mapping with its extraction rule replaced — the
    /// hook the federated pushdown planner uses to substitute a
    /// natively rewritten rule (same attribute, same source, same
    /// scenario) without re-resolving the path against the ontology.
    pub fn with_rule(&self, rule: ExtractionRule) -> AttributeMapping {
        AttributeMapping { rule, compiled: CompiledSlot::default(), ..self.clone() }
    }
}

/// The attribute repository: all registered mappings, keyed by the
/// paper's `(attribute path, source id)` pair.
#[derive(Debug, Clone, Default)]
pub struct MappingModule {
    /// path → its mappings, one per source, in [`source_order`]; each
    /// shared with the extraction schemas of the queries that read it.
    by_path: BTreeMap<AttributePath, Vec<Arc<AttributeMapping>>>,
}

/// Orders the sources of one path: case-folded with `_` read as `-`
/// (the order answers have always been rendered in), then the raw id,
/// so two distinct ids never compare equal.
fn source_order(a: &SourceId, b: &SourceId) -> Ordering {
    let fold = |byte: u8| if byte == b'_' { b'-' } else { byte.to_ascii_lowercase() };
    let (a, b) = (a.as_str(), b.as_str());
    a.bytes().map(fold).cmp(b.bytes().map(fold)).then_with(|| a.cmp(b))
}

impl MappingModule {
    /// An empty module.
    pub fn new() -> Self {
        MappingModule::default()
    }

    /// Registers an attribute mapping, performing the paper's three
    /// steps: the path is validated against the ontology (naming), the
    /// rule is stored (extraction rules), and the association to the
    /// source is recorded (attribute mapping).
    ///
    /// Several sources may map the same attribute — each registration is
    /// keyed by `(path, source)`; re-registering the same pair replaces
    /// the rule, and the displaced mapping is returned so callers can
    /// distinguish a fresh registration (`None`) from an **edit**
    /// (`Some(old)`) — edits drive targeted cache invalidation instead
    /// of a wholesale clear.
    ///
    /// # Errors
    ///
    /// Returns [`S2sError::Owl`] if the path does not resolve against
    /// `ontology`.
    pub fn register(
        &mut self,
        ontology: &Ontology,
        path: AttributePath,
        rule: ExtractionRule,
        source: SourceId,
        scenario: RecordScenario,
    ) -> Result<Option<AttributeMapping>, S2sError> {
        let resolved = path.resolve(ontology)?;
        let mapping = Arc::new(AttributeMapping {
            path: path.clone(),
            resolved,
            rule,
            source,
            scenario,
            compiled: CompiledSlot::default(),
        });
        let sources = self.by_path.entry(path).or_default();
        Ok(match sources.binary_search_by(|held| source_order(&held.source, &mapping.source)) {
            // A query still holding the displaced mapping keeps its own
            // share; the caller gets a copy only then.
            Ok(at) => Some(Arc::unwrap_or_clone(std::mem::replace(&mut sources[at], mapping))),
            Err(at) => {
                // Grown exactly: most paths have one source, and a `Vec`
                // grown the amortized way starts with room for four.
                sources.reserve_exact(1);
                sources.insert(at, mapping);
                None
            }
        })
    }

    /// All mappings for `path`, across sources.
    pub fn mappings_for(&self, path: &AttributePath) -> Vec<&AttributeMapping> {
        self.shared_mappings_for(path).iter().map(Arc::as_ref).collect()
    }

    /// [`MappingModule::mappings_for`] as the module holds them: a
    /// query takes a share of each (a pointer bump) instead of a copy.
    pub fn shared_mappings_for(&self, path: &AttributePath) -> &[Arc<AttributeMapping>] {
        self.by_path.get(path).map_or(&[], Vec::as_slice)
    }

    /// Every mapping, in key order.
    pub fn iter(&self) -> impl Iterator<Item = &AttributeMapping> {
        self.by_path.values().flatten().map(Arc::as_ref)
    }

    /// Number of registered mappings.
    pub fn len(&self) -> usize {
        self.by_path.values().map(Vec::len).sum()
    }

    /// Whether no mappings are registered.
    pub fn is_empty(&self) -> bool {
        self.by_path.is_empty()
    }

    /// Whether `path` has at least one mapping.
    pub fn contains(&self, path: &AttributePath) -> bool {
        self.by_path.contains_key(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wrapper::CompiledRule;
    use s2s_owl::Ontology;

    fn onto() -> Ontology {
        Ontology::builder("http://example.org/schema#")
            .class("Product", None)
            .unwrap()
            .class("Watch", Some("Product"))
            .unwrap()
            .datatype_property("brand", "Product", s2s_rdf::vocab::xsd::STRING)
            .unwrap()
            .datatype_property("case", "Watch", s2s_rdf::vocab::xsd::STRING)
            .unwrap()
            .build()
            .unwrap()
    }

    fn path(s: &str) -> AttributePath {
        s.parse().unwrap()
    }

    #[test]
    fn paper_registration_example() {
        // thing.product.brand = watch.webl, wpage_81
        let o = onto();
        let mut m = MappingModule::new();
        m.register(
            &o,
            path("thing.product.brand"),
            ExtractionRule::Webl { program: "var x = 1;".into() },
            "wpage_81".into(),
            RecordScenario::SingleRecord,
        )
        .unwrap();
        assert_eq!(m.len(), 1);
        let found = m.mappings_for(&path("thing.product.brand"));
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].source().as_str(), "wpage_81");
        assert_eq!(found[0].rule().language(), "webl");
        assert_eq!(found[0].class().local_name(), "Product");
    }

    #[test]
    fn bad_path_rejected() {
        let o = onto();
        let mut m = MappingModule::new();
        let err = m.register(
            &o,
            path("thing.gadget.brand"),
            ExtractionRule::XPath { path: "//b".into() },
            "x".into(),
            RecordScenario::SingleRecord,
        );
        assert!(matches!(err, Err(S2sError::Owl(_))));
    }

    #[test]
    fn multiple_sources_same_attribute() {
        let o = onto();
        let mut m = MappingModule::new();
        for src in ["DB_ID_45", "wpage_81"] {
            m.register(
                &o,
                path("thing.product.brand"),
                ExtractionRule::TextRegex { pattern: "x".into(), group: 0 },
                src.into(),
                RecordScenario::SingleRecord,
            )
            .unwrap();
        }
        assert_eq!(m.mappings_for(&path("thing.product.brand")).len(), 2);
        assert_eq!(m.iter().filter(|f| f.source().as_str() == "DB_ID_45").count(), 1);
    }

    #[test]
    fn re_registration_replaces_rule() {
        let o = onto();
        let mut m = MappingModule::new();
        for pattern in ["a", "b"] {
            m.register(
                &o,
                path("thing.product.brand"),
                ExtractionRule::TextRegex { pattern: pattern.into(), group: 0 },
                "S".into(),
                RecordScenario::SingleRecord,
            )
            .unwrap();
        }
        let found = m.mappings_for(&path("thing.product.brand"));
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].rule().text(), "b");
    }

    fn regex(pattern: &str) -> ExtractionRule {
        ExtractionRule::TextRegex { pattern: pattern.into(), group: 0 }
    }

    /// Ids the old lossy key (`src-<lower-cased id, '_'→'-'>`, or the
    /// bare path when that was no legal segment) mapped to one slot.
    #[test]
    fn distinct_sources_never_share_a_key() {
        let o = onto();
        let brand = path("thing.product.brand");
        for (a, b) in
            [("DB_1", "db-1"), ("a.example.org", "b.example.org"), ("feed one", "feed two")]
        {
            let mut m = MappingModule::new();
            let single = RecordScenario::SingleRecord;
            assert!(m.register(&o, brand.clone(), regex("a"), a.into(), single).unwrap().is_none());
            let second = m.register(&o, brand.clone(), regex("b"), b.into(), single).unwrap();
            assert!(second.is_none(), "{b} is a fresh registration, not an edit of {a}");
            assert_eq!(m.len(), 2);
            // Re-registering one is an edit of that one alone.
            let displaced = m.register(&o, brand.clone(), regex("c"), a.into(), single).unwrap();
            assert_eq!(displaced.expect("an edit").rule().text(), "a");
            assert_eq!(m.len(), 2);
            let mut found: Vec<(&str, &str)> = m
                .mappings_for(&brand)
                .into_iter()
                .map(|f| (f.source().as_str(), f.rule().text()))
                .collect();
            found.sort_unstable();
            let mut want = [(a, "c"), (b, "b")];
            want.sort_unstable();
            assert_eq!(found, want);
        }
    }

    #[test]
    fn sources_of_one_path_iterate_in_the_folded_id_order() {
        let o = onto();
        let mut m = MappingModule::new();
        // Case-folded, `_` read as `-`; the raw id breaks ties.
        for src in ["wpage_81", "XML_7", "db-1", "DB_ID_45", "txt_9", "DB_1"] {
            let brand = path("thing.product.brand");
            m.register(&o, brand, regex("x"), src.into(), RecordScenario::SingleRecord).unwrap();
        }
        let order: Vec<&str> = m
            .mappings_for(&path("thing.product.brand"))
            .into_iter()
            .map(|f| f.source().as_str())
            .collect();
        assert_eq!(order, ["DB_1", "db-1", "DB_ID_45", "txt_9", "wpage_81", "XML_7"]);
    }

    /// 4 096 mappings: `mappings_for`/`contains` agree with a brute-force
    /// filter over every mapping for present, absent and multi-source
    /// paths.
    #[test]
    fn index_lookups_match_a_full_scan() {
        let mut b = Ontology::builder("http://example.org/big#").class("Root", None).unwrap();
        for c in 0..64 {
            b = b.class(&format!("C{c}"), Some("Root")).unwrap();
            for p in 0..8 {
                let prop = format!("p{c}x{p}");
                b = b
                    .datatype_property(&prop, &format!("C{c}"), s2s_rdf::vocab::xsd::STRING)
                    .unwrap();
            }
        }
        let o = b.build().unwrap();
        let mut m = MappingModule::new();
        let mut paths = Vec::new();
        for c in 0..64 {
            for p in 0..8 {
                let attr = path(&format!("thing.root.c{c}.p{c}x{p}"));
                // 8 sources per path: 64 × 8 × 8 = 4 096 mappings.
                for s in 0..8 {
                    let src = format!("S_{}", (c + p + s) % 23);
                    let multi = RecordScenario::MultiRecord;
                    m.register(&o, attr.clone(), regex("x"), src.as_str().into(), multi).unwrap();
                }
                paths.push(attr);
            }
        }
        assert_eq!(m.len(), 4096);
        assert_eq!(m.iter().count(), 4096);
        paths.push(path("thing.root.c0.p1x0")); // well-formed, never registered
        for probe in &paths {
            let scan: Vec<&AttributeMapping> = m.iter().filter(|f| f.path() == probe).collect();
            assert_eq!(m.mappings_for(probe), scan, "{probe}");
            assert_eq!(m.contains(probe), !scan.is_empty(), "{probe}");
        }
        assert_eq!(m.mappings_for(&paths[0]).len(), 8);
        assert!(!m.contains(paths.last().unwrap()));
    }

    #[test]
    fn re_registration_reports_displaced_mapping() {
        let o = onto();
        let mut m = MappingModule::new();
        let fresh = m
            .register(
                &o,
                path("thing.product.brand"),
                ExtractionRule::TextRegex { pattern: "a".into(), group: 0 },
                "S".into(),
                RecordScenario::SingleRecord,
            )
            .unwrap();
        assert!(fresh.is_none());
        let displaced = m
            .register(
                &o,
                path("thing.product.brand"),
                ExtractionRule::TextRegex { pattern: "b".into(), group: 0 },
                "S".into(),
                RecordScenario::SingleRecord,
            )
            .unwrap();
        assert_eq!(displaced.unwrap().rule().text(), "a");
    }

    /// `rule` registered for `thing.product.brand` on source `S`.
    fn mapping(rule: ExtractionRule) -> AttributeMapping {
        let mut m = MappingModule::new();
        let single = RecordScenario::SingleRecord;
        m.register(&onto(), path("thing.product.brand"), rule, "S".into(), single).unwrap();
        let mapping = m.iter().next().unwrap().clone();
        mapping
    }

    fn source(xml: bool) -> crate::source::Connection {
        use crate::source::Connection;
        if xml {
            Connection::Xml { document: Arc::new(s2s_xml::parse("<c/>").unwrap()) }
        } else {
            Connection::Database { db: Arc::new(s2s_minidb::Database::new("d")) }
        }
    }

    #[test]
    fn a_mapping_compiles_once_and_a_new_rule_compiles_afresh() {
        let xml = source(true);
        let compiled = |m| crate::wrapper::compiled(&xml, m).unwrap();
        let m = mapping(ExtractionRule::XPath { path: "//w/brand/text()".into() });
        let (CompiledRule::XPath(first), CompiledRule::XPath(second)) =
            (compiled(&m), compiled(&m))
        else {
            panic!("an XPath rule compiles to an XPath");
        };
        assert!(Arc::ptr_eq(first, second), "the second call compiled again");
        let edited = m.with_rule(ExtractionRule::XPath { path: "//w/case/text()".into() });
        let CompiledRule::XPath(fresh) = compiled(&edited) else { panic!() };
        assert!(!Arc::ptr_eq(first, fresh), "with_rule kept the old compiled form");
        assert_eq!(edited, m.with_rule(edited.rule().clone()), "the compiled form is not compared");
    }

    #[test]
    fn a_bad_rule_errors_on_every_use() {
        let db = source(false);
        let m = mapping(ExtractionRule::Sql { query: "DROP TABLE t".into(), column: "c".into() });
        let first = crate::wrapper::compiled(&db, &m).unwrap_err();
        assert_eq!(first.code(), "s2s::db");
        assert_eq!(crate::wrapper::compiled(&db, &m).unwrap_err(), first);
    }
}
