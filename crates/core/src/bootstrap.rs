//! Automatic mapping bootstrap: native schema → candidate ontology
//! mappings and extraction rules (DESIGN.md §4l).
//!
//! Each source kind's wrapper introspects what the source declares about
//! itself (`CREATE TABLE` metadata, XML shape, HTML tags, labelled text
//! headers) into a [`SchemaSummary`] whose fields carry the rules that
//! read them. This module matches field names against the ontology,
//! picks an anchor class, and reports scored candidates plus the
//! conflicts automation must not guess, as a [`BootstrapReport`] a
//! caller accepts, overrides ([`BootstrapReport::resolve`]) or rejects
//! before [`crate::S2s::apply_bootstrap`] registers it through the
//! regular path.
//!
//! # Confidence model
//!
//! | score | basis |
//! |-------|-------|
//! | 1.00  | caller override (asserted, not inferred) |
//! | 0.95  | exact case-insensitive name match |
//! | 0.90  | markup hint match (HTML `class` attribute) |
//! | 0.85  | normalized match (separators/case stripped) |
//! | 0.70  | stem match (field = property + separator suffix, e.g. `case_m`) |
//!
//! A candidate is only auto-accepted when exactly one property matches
//! at the best tier *and* the observed value shape agrees with the
//! property's declared range; anything weaker becomes a conflict.

use s2s_owl::{AttributePath, Ontology, PropertyKind};

use crate::error::S2sError;
use crate::mapping::{ExtractionRule, RecordScenario};
use crate::source::{Connection, SourceKind};

/// Confidence of an exact case-insensitive name match.
pub const CONFIDENCE_EXACT: f64 = 0.95;
/// Confidence of a markup-hint match (e.g. HTML `class="price"`).
pub const CONFIDENCE_HINT: f64 = 0.90;
/// Confidence of a normalized (separator/case-stripped) match.
pub const CONFIDENCE_NORMALIZED: f64 = 0.85;
/// Confidence of a stem match (`case_m` → `case`).
pub const CONFIDENCE_STEM: f64 = 0.70;
/// Confidence of a caller override.
pub const CONFIDENCE_OVERRIDE: f64 = 1.0;

/// One field recovered from a source's native schema.
#[derive(Debug, Clone, PartialEq)]
pub struct SchemaField {
    /// The field's native name (column, element, tag, or label).
    pub name: String,
    /// A markup name hint distinct from the field name (the HTML
    /// `class` attribute value when the tag carries exactly one).
    pub hint: Option<String>,
    /// Observed value samples (up to 8).
    pub samples: Vec<String>,
    /// Declared numeric-ness, when the native schema declares types
    /// (DB columns). `None` = no declaration; sniff the samples.
    pub declared_numeric: Option<bool>,
    /// Whether the field is a record-identity field (DB primary key).
    pub primary_key: bool,
    /// The extraction rule that reads the field's values.
    pub rule: ExtractionRule,
}

impl SchemaField {
    /// Whether the observed values look numeric: a declared numeric
    /// type wins; otherwise every sample must parse as a number.
    pub fn looks_numeric(&self) -> bool {
        match self.declared_numeric {
            Some(d) => d,
            None => {
                !self.samples.is_empty() && self.samples.iter().all(|s| s.parse::<f64>().is_ok())
            }
        }
    }
}

/// The native-schema summary of one source.
#[derive(Debug, Clone, PartialEq)]
pub struct SchemaSummary {
    /// The source kind.
    pub kind: SourceKind,
    /// The native name of the record container (table, record element,
    /// page, export) — used to name proposed classes.
    pub container: String,
    /// Number of record instances observed.
    pub records: usize,
    /// The fields, in native order.
    pub fields: Vec<SchemaField>,
    /// The record scenario the shape implies: single-record only for an
    /// XML document whose root *is* the record.
    pub scenario: RecordScenario,
}

/// One auto-generated attribute-mapping candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct MappingCandidate {
    /// The native field the candidate maps.
    pub field: String,
    /// The ontology attribute path (e.g. `thing.product.watch.brand`).
    pub path: String,
    /// The generated extraction rule.
    pub rule: ExtractionRule,
    /// The record scenario.
    pub scenario: RecordScenario,
    /// Confidence score (see the module docs).
    pub confidence: f64,
    /// Human-readable evidence for the match.
    pub basis: String,
    /// Whether the candidate will be registered by
    /// [`crate::S2s::apply_bootstrap`]. Defaults to `true`; cleared by
    /// [`BootstrapReport::reject`].
    pub accepted: bool,
    /// Whether the candidate has already been registered.
    pub applied: bool,
}

/// A case automation must not guess. Variants that an override can
/// sensibly accept carry the generated rule so
/// [`BootstrapReport::resolve`] can promote them without re-running
/// introspection.
#[derive(Debug, Clone, PartialEq)]
pub enum Conflict {
    /// Several ontology properties match the field equally well (or
    /// the field carries no name signal at all, like a bare `<b>` tag,
    /// and is matched on value shape alone).
    AmbiguousTarget {
        /// The field.
        field: String,
        /// The candidate attribute paths, best-first.
        options: Vec<String>,
        /// The rule that extracts the field's values.
        rule: ExtractionRule,
        /// The record scenario.
        scenario: RecordScenario,
    },
    /// The name matches but the observed value shape contradicts the
    /// property's declared range.
    AmbiguousType {
        /// The field.
        field: String,
        /// The matched attribute path.
        path: String,
        /// What the property's range expects (`numeric` / `string`).
        expected: String,
        /// What the samples look like.
        observed: String,
        /// The rule that extracts the field's values.
        rule: ExtractionRule,
        /// The record scenario.
        scenario: RecordScenario,
    },
    /// Two or more fields map to the same property; none is
    /// auto-accepted.
    NameCollision {
        /// The contested attribute path.
        path: String,
        /// The colliding fields with their generated rules.
        fields: Vec<(String, ExtractionRule)>,
        /// The record scenario.
        scenario: RecordScenario,
    },
    /// No ontology property plausibly matches the field.
    Unmappable {
        /// The field.
        field: String,
        /// Why.
        reason: String,
    },
}

impl Conflict {
    /// The native field(s) the conflict is about.
    pub fn fields(&self) -> Vec<&str> {
        match self {
            Conflict::AmbiguousTarget { field, .. }
            | Conflict::AmbiguousType { field, .. }
            | Conflict::Unmappable { field, .. } => vec![field.as_str()],
            Conflict::NameCollision { fields, .. } => {
                fields.iter().map(|(f, _)| f.as_str()).collect()
            }
        }
    }

    /// A short kebab-case kind tag (for logs and reports).
    pub fn kind(&self) -> &'static str {
        match self {
            Conflict::AmbiguousTarget { .. } => "ambiguous-target",
            Conflict::AmbiguousType { .. } => "ambiguous-type",
            Conflict::NameCollision { .. } => "name-collision",
            Conflict::Unmappable { .. } => "unmappable",
        }
    }
}

/// A proposed new ontology class for a schema no existing class
/// covers. Never registered automatically — ontology growth is a
/// curation decision.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassCandidate {
    /// Proposed class name (the native container name).
    pub name: String,
    /// Proposed datatype-property names (the field names).
    pub properties: Vec<String>,
}

/// The result of bootstrapping one source: scored candidates, explicit
/// conflicts, and (for wholly foreign schemas) proposed classes.
#[derive(Debug, Clone, PartialEq)]
pub struct BootstrapReport {
    /// The source id.
    pub source: String,
    /// The source kind.
    pub kind: SourceKind,
    /// Number of record instances observed during introspection.
    pub records: usize,
    /// Auto-generated candidates (accepted by default).
    pub candidates: Vec<MappingCandidate>,
    /// Cases automation refused to guess.
    pub conflicts: Vec<Conflict>,
    /// Proposed new classes for unmatched schemas.
    pub proposals: Vec<ClassCandidate>,
}

impl BootstrapReport {
    /// The candidate for a native field, if any.
    pub fn candidate(&self, field: &str) -> Option<&MappingCandidate> {
        self.candidates.iter().find(|c| c.field == field)
    }

    /// Candidates that will be registered (accepted and not yet
    /// applied).
    pub fn pending(&self) -> impl Iterator<Item = &MappingCandidate> {
        self.candidates.iter().filter(|c| c.accepted && !c.applied)
    }

    /// Rejects a field: its candidate (if any) will not be registered.
    /// Returns whether a candidate was present.
    pub fn reject(&mut self, field: &str) -> bool {
        match self.candidates.iter_mut().find(|c| c.field == field) {
            Some(c) => {
                c.accepted = false;
                true
            }
            None => false,
        }
    }

    /// Resolves a conflicted field by overriding its target attribute
    /// path. The generated rule carried by the conflict is reused; the
    /// promoted candidate scores [`CONFIDENCE_OVERRIDE`]. Also
    /// re-points an existing (unapplied) candidate.
    ///
    /// # Errors
    ///
    /// Returns [`S2sError::Bootstrap`] if the field has neither a
    /// conflict carrying a rule nor an unapplied candidate.
    pub fn resolve(&mut self, field: &str, path: &str) -> Result<(), S2sError> {
        if let Some(c) = self.candidates.iter_mut().find(|c| c.field == field && !c.applied) {
            c.path = path.to_string();
            c.confidence = CONFIDENCE_OVERRIDE;
            c.basis = "caller override".to_string();
            c.accepted = true;
            return Ok(());
        }
        let found = self.conflicts.iter().find_map(|conflict| match conflict {
            Conflict::AmbiguousTarget { field: f, rule, scenario, .. }
            | Conflict::AmbiguousType { field: f, rule, scenario, .. }
                if f == field =>
            {
                Some((rule.clone(), *scenario))
            }
            Conflict::NameCollision { fields, scenario, .. } => {
                fields.iter().find(|(f, _)| f == field).map(|(_, rule)| (rule.clone(), *scenario))
            }
            _ => None,
        });
        let (rule, scenario) = found.ok_or_else(|| S2sError::Bootstrap {
            source: self.source.clone(),
            message: format!("no conflicted field `{field}` to resolve"),
        })?;
        self.add_override(field, path, rule, scenario);
        Ok(())
    }

    /// Adds a fully caller-specified candidate (escape hatch for
    /// fields introspection could not see at all).
    pub fn add_override(
        &mut self,
        field: &str,
        path: &str,
        rule: ExtractionRule,
        scenario: RecordScenario,
    ) {
        self.candidates.push(MappingCandidate {
            field: field.to_string(),
            path: path.to_string(),
            rule,
            scenario,
            confidence: CONFIDENCE_OVERRIDE,
            basis: "caller override".to_string(),
            accepted: true,
            applied: false,
        });
    }

    /// Overrides the record scenario on every unapplied candidate —
    /// for callers that know a source describes a single record even
    /// though its shape repeats.
    pub fn override_scenario(&mut self, scenario: RecordScenario) {
        for c in self.candidates.iter_mut().filter(|c| !c.applied) {
            c.scenario = scenario;
        }
    }
}

/// Recovers the native schema of a connection.
///
/// # Errors
///
/// Returns [`S2sError::Webdoc`] if a web/text URL cannot be fetched
/// and [`S2sError::Bootstrap`] if the source exposes no fields at all.
pub fn introspect(source_id: &str, connection: &Connection) -> Result<SchemaSummary, S2sError> {
    let summary = crate::wrapper::with(connection, |w| w.introspect(source_id))?;
    if summary.fields.is_empty() {
        return Err(S2sError::Bootstrap {
            source: source_id.to_string(),
            message: "introspection found no schema fields to map".to_string(),
        });
    }
    Ok(summary)
}

/// One name-evidence match of a field against a property.
struct NameMatch {
    property: s2s_rdf::Iri,
    confidence: f64,
    basis: String,
}

/// Generates the bootstrap report for one source against `ontology`.
///
/// # Errors
///
/// Propagates [`introspect`] failures; path construction against the
/// ontology cannot fail for properties the matcher found in it.
pub fn bootstrap(
    ontology: &Ontology,
    source_id: &str,
    connection: &Connection,
) -> Result<BootstrapReport, S2sError> {
    let summary = introspect(source_id, connection)?;
    let scenario = summary.scenario;
    let mut report = BootstrapReport {
        source: source_id.to_string(),
        kind: summary.kind,
        records: summary.records,
        candidates: Vec::new(),
        conflicts: Vec::new(),
        proposals: Vec::new(),
    };

    // Phase 1: name evidence per field.
    let mut matched: Vec<(usize, NameMatch)> = Vec::new();
    for (fi, field) in summary.fields.iter().enumerate() {
        let matches = name_matches(ontology, field);
        match best_tier(matches) {
            BestTier::One(m) => matched.push((fi, m)),
            BestTier::Tie(ms) => {
                // Several properties at the same tier: ambiguous target.
                let options = paths_for(ontology, ms.iter().map(|m| &m.property));
                report.conflicts.push(Conflict::AmbiguousTarget {
                    field: field.name.clone(),
                    options,
                    rule: field.rule.clone(),
                    scenario,
                });
            }
            BestTier::None => {
                // No name signal. A value-shape match is offered as an
                // ambiguous target (override territory); otherwise the
                // field is unmappable.
                let shape_options = shape_matches(ontology, field);
                if field.primary_key {
                    report.conflicts.push(Conflict::Unmappable {
                        field: field.name.clone(),
                        reason: "primary-key column with no matching ontology property".to_string(),
                    });
                } else if shape_options.is_empty() {
                    report.conflicts.push(Conflict::Unmappable {
                        field: field.name.clone(),
                        reason: "no ontology property matches by name or value shape".to_string(),
                    });
                } else {
                    report.conflicts.push(Conflict::AmbiguousTarget {
                        field: field.name.clone(),
                        options: paths_for(ontology, shape_options.iter().copied()),
                        rule: field.rule.clone(),
                        scenario,
                    });
                }
            }
        }
    }

    // Phase 2: collision detection across matched fields.
    let mut by_property: Vec<(s2s_rdf::Iri, Vec<usize>)> = Vec::new();
    for (fi, m) in &matched {
        match by_property.iter_mut().find(|(p, _)| p == &m.property) {
            Some((_, v)) => v.push(*fi),
            None => by_property.push((m.property.clone(), vec![*fi])),
        }
    }

    // Phase 3: anchor-class selection over the uncontested properties.
    let uncontested: Vec<&s2s_rdf::Iri> =
        by_property.iter().filter(|(_, fis)| fis.len() == 1).map(|(p, _)| p).collect();
    let anchor = anchor_class(ontology, &uncontested);

    for (property, fis) in &by_property {
        let path = path_for(ontology, anchor.as_ref(), property);
        if fis.len() > 1 {
            report.conflicts.push(Conflict::NameCollision {
                path,
                fields: fis
                    .iter()
                    .map(|&fi| (summary.fields[fi].name.clone(), summary.fields[fi].rule.clone()))
                    .collect(),
                scenario,
            });
            continue;
        }
        let fi = fis[0];
        let field = &summary.fields[fi];
        let m = &matched.iter().find(|(i, _)| *i == fi).expect("indexed from matched").1;

        // Phase 4: value-shape agreement with the declared range.
        let expects_numeric = property_numeric(ontology, property);
        let observed_numeric = field.looks_numeric();
        if expects_numeric && !observed_numeric && !field.samples.is_empty() {
            report.conflicts.push(Conflict::AmbiguousType {
                field: field.name.clone(),
                path,
                expected: "numeric".to_string(),
                observed: "string".to_string(),
                rule: field.rule.clone(),
                scenario,
            });
            continue;
        }

        report.candidates.push(MappingCandidate {
            field: field.name.clone(),
            path,
            rule: field.rule.clone(),
            scenario,
            confidence: m.confidence,
            basis: m.basis.clone(),
            accepted: true,
            applied: false,
        });
    }

    // Phase 5: a wholly foreign schema proposes a new class instead.
    if report.candidates.is_empty() && matched.is_empty() {
        report.proposals.push(ClassCandidate {
            name: summary.container.clone(),
            properties: summary
                .fields
                .iter()
                .filter(|f| !f.primary_key)
                .map(|f| f.name.clone())
                .collect(),
        });
    }

    Ok(report)
}

/// All name-evidence matches of `field` against the ontology's
/// datatype properties, best tier first per property.
fn name_matches(ontology: &Ontology, field: &SchemaField) -> Vec<NameMatch> {
    let name = field.name.to_ascii_lowercase();
    let norm = normalize(&name);
    let hint = field.hint.as_deref().map(str::to_ascii_lowercase);
    let mut out = Vec::new();
    for p in ontology.properties().filter(|p| p.kind() == PropertyKind::Datatype) {
        let prop = p.iri().local_name().to_ascii_lowercase();
        let prop_norm = normalize(&prop);
        let m = if prop == name {
            Some((CONFIDENCE_EXACT, format!("exact name match on `{prop}`")))
        } else if hint.as_deref() == Some(prop.as_str()) {
            Some((CONFIDENCE_HINT, format!("markup hint `class=\"{prop}\"`")))
        } else if !prop_norm.is_empty() && prop_norm == norm {
            Some((CONFIDENCE_NORMALIZED, format!("normalized match on `{prop}`")))
        } else if is_stem(&name, &prop) {
            Some((CONFIDENCE_STEM, format!("stem match `{name}` → `{prop}`")))
        } else {
            None
        };
        if let Some((confidence, basis)) = m {
            out.push(NameMatch { property: p.iri().clone(), confidence, basis });
        }
    }
    out
}

/// Datatype properties whose declared range agrees with the field's
/// observed value shape — the weakest evidence, offered only as
/// override options.
fn shape_matches<'o>(ontology: &'o Ontology, field: &SchemaField) -> Vec<&'o s2s_rdf::Iri> {
    if field.samples.is_empty() {
        return Vec::new();
    }
    let numeric = field.looks_numeric();
    ontology
        .properties()
        .filter(|p| p.kind() == PropertyKind::Datatype)
        .filter(|p| property_numeric_def(p) == numeric)
        .map(|p| p.iri())
        .collect()
}

enum BestTier {
    One(NameMatch),
    Tie(Vec<NameMatch>),
    None,
}

fn best_tier(mut matches: Vec<NameMatch>) -> BestTier {
    if matches.is_empty() {
        return BestTier::None;
    }
    let best = matches.iter().map(|m| m.confidence).fold(0.0f64, f64::max);
    matches.retain(|m| m.confidence == best);
    if matches.len() == 1 {
        BestTier::One(matches.remove(0))
    } else {
        BestTier::Tie(matches)
    }
}

/// Lowercase with every non-alphanumeric character removed.
fn normalize(s: &str) -> String {
    s.chars().filter(char::is_ascii_alphanumeric).collect::<String>().to_ascii_lowercase()
}

/// Whether `name` is `prop` plus a separated suffix (`case_m`,
/// `price-usd`) — a common relational naming convention.
fn is_stem(name: &str, prop: &str) -> bool {
    name.len() > prop.len()
        && name.starts_with(prop)
        && matches!(name.as_bytes()[prop.len()], b'_' | b'-' | b'.')
}

/// Whether a property's declared range is numeric.
fn property_numeric(ontology: &Ontology, property: &s2s_rdf::Iri) -> bool {
    ontology.property(property).is_some_and(property_numeric_def)
}

fn property_numeric_def(p: &s2s_owl::PropertyDef) -> bool {
    p.ranges().any(|r| {
        matches!(
            r.local_name().to_ascii_lowercase().as_str(),
            "decimal" | "integer" | "int" | "long" | "float" | "double"
        )
    })
}

/// The most specific class that can anchor every uncontested matched
/// property (every property's domain is the class or one of its
/// superclasses). Deterministic: among equally deep classes the
/// lexicographically smallest IRI wins.
fn anchor_class(ontology: &Ontology, properties: &[&s2s_rdf::Iri]) -> Option<s2s_rdf::Iri> {
    if properties.is_empty() {
        return None;
    }
    let covers = |class: &s2s_rdf::Iri| {
        properties.iter().all(|prop| {
            ontology
                .property(prop)
                .is_some_and(|p| p.domains().any(|d| ontology.is_subclass_of(class, d)))
        })
    };
    ontology
        .classes()
        .filter(|c| covers(c.iri()))
        .max_by(|a, b| {
            let depth = |c: &s2s_owl::ClassDef| ontology.superclasses(c.iri()).len();
            depth(a).cmp(&depth(b)).then_with(|| b.iri().as_str().cmp(a.iri().as_str()))
        })
        .map(|c| c.iri().clone())
}

/// The canonical attribute path for `property`, anchored at the
/// selected class when it applies, else at the property's first
/// domain.
fn path_for(ontology: &Ontology, anchor: Option<&s2s_rdf::Iri>, property: &s2s_rdf::Iri) -> String {
    let domain_ok = |class: &s2s_rdf::Iri| {
        ontology
            .property(property)
            .is_some_and(|p| p.domains().any(|d| ontology.is_subclass_of(class, d)))
    };
    let class = match anchor {
        Some(a) if domain_ok(a) => a.clone(),
        _ => ontology
            .property(property)
            .and_then(|p| p.domains().next().cloned())
            .expect("matched properties have a domain"),
    };
    AttributePath::for_attribute(ontology, &class, property)
        .expect("class and property exist in this ontology")
        .to_string()
}

fn paths_for<'i>(
    ontology: &Ontology,
    properties: impl Iterator<Item = &'i s2s_rdf::Iri>,
) -> Vec<String> {
    let mut out: Vec<String> = properties.map(|p| path_for(ontology, None, p)).collect();
    out.sort();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn watch_ontology() -> Ontology {
        Ontology::builder("http://bootstrap.example/schema#")
            .class("Product", None)
            .unwrap()
            .class("Watch", Some("Product"))
            .unwrap()
            .datatype_property("brand", "Product", "http://www.w3.org/2001/XMLSchema#string")
            .unwrap()
            .datatype_property("price", "Product", "http://www.w3.org/2001/XMLSchema#decimal")
            .unwrap()
            .datatype_property("case", "Watch", "http://www.w3.org/2001/XMLSchema#string")
            .unwrap()
            .build()
            .unwrap()
    }

    fn db_connection(sql: &[&str]) -> Connection {
        let mut db = s2s_minidb::Database::new("t");
        for stmt in sql {
            db.execute(stmt).unwrap();
        }
        Connection::Database { db: Arc::new(db) }
    }

    #[test]
    fn db_columns_bootstrap_with_stem_and_exact_matches() {
        let conn = db_connection(&[
            "CREATE TABLE watches (id INTEGER PRIMARY KEY, brand TEXT, price REAL, case_m TEXT)",
            "INSERT INTO watches VALUES (1, 'seiko', 120.5, 'steel')",
        ]);
        let report = bootstrap(&watch_ontology(), "DB", &conn).unwrap();
        assert_eq!(report.candidates.len(), 3);
        let brand = report.candidate("brand").unwrap();
        assert_eq!(brand.path, "thing.product.watch.brand");
        assert_eq!(brand.confidence, CONFIDENCE_EXACT);
        assert_eq!(
            brand.rule,
            ExtractionRule::Sql {
                query: "SELECT brand FROM watches ORDER BY id".into(),
                column: "brand".into()
            }
        );
        let case = report.candidate("case_m").unwrap();
        assert_eq!(case.path, "thing.product.watch.case");
        assert_eq!(case.confidence, CONFIDENCE_STEM);
        // The primary key has no property: surfaced, not guessed.
        assert!(matches!(
            &report.conflicts[..],
            [Conflict::Unmappable { field, .. }] if field == "id"
        ));
    }

    #[test]
    fn html_class_hint_matches_and_bare_tags_are_ambiguous() {
        let mut store = s2s_webdoc::WebStore::new();
        store.register_html(
            "http://x/list",
            "<html><body><ul><li><b>seiko</b> <span class=\"price\">120</span> \
             <i>steel</i></li></ul></body></html>",
        );
        let conn = Connection::Web { store: Arc::new(store), url: "http://x/list".into() };
        let report = bootstrap(&watch_ontology(), "WEB", &conn).unwrap();
        let span = report.candidate("span").unwrap();
        assert_eq!(span.path, "thing.product.watch.price");
        assert_eq!(span.confidence, CONFIDENCE_HINT);
        // `b` and `i` have no name signal: string-shaped options only.
        let ambiguous: Vec<&Conflict> = report
            .conflicts
            .iter()
            .filter(|c| matches!(c, Conflict::AmbiguousTarget { .. }))
            .collect();
        assert_eq!(ambiguous.len(), 2);
        for c in ambiguous {
            if let Conflict::AmbiguousTarget { options, .. } = c {
                assert_eq!(
                    options,
                    &vec![
                        "thing.product.brand".to_string(),
                        "thing.product.watch.case".to_string()
                    ]
                );
            }
        }
    }

    #[test]
    fn name_collision_and_unmappable_both_surface_and_override_resolves() {
        let conn = db_connection(&[
            "CREATE TABLE prices (id INTEGER PRIMARY KEY, price REAL, price_usd REAL)",
            "INSERT INTO prices VALUES (1, 1.5, 2.5)",
        ]);
        let mut report = bootstrap(&watch_ontology(), "DB2", &conn).unwrap();
        // Both `price` (exact) and `price_usd` (stem) hit the same
        // property: no candidate is auto-accepted.
        assert!(report.candidates.is_empty());
        let kinds: Vec<&str> = report.conflicts.iter().map(Conflict::kind).collect();
        assert!(kinds.contains(&"name-collision"), "{kinds:?}");
        assert!(kinds.contains(&"unmappable"), "{kinds:?}");
        // An override picks the winner and round-trips into a
        // registrable candidate.
        report.resolve("price", "thing.product.watch.price").unwrap();
        let c = report.candidate("price").unwrap();
        assert_eq!(c.confidence, CONFIDENCE_OVERRIDE);
        assert_eq!(
            c.rule,
            ExtractionRule::Sql {
                query: "SELECT price FROM prices ORDER BY id".into(),
                column: "price".into()
            }
        );
        // Resolving a field that never existed is a bootstrap error.
        let err = report.resolve("ghost", "thing.product.watch.price").unwrap_err();
        assert!(matches!(err, S2sError::Bootstrap { .. }));
    }

    #[test]
    fn foreign_schema_proposes_a_class() {
        let conn = db_connection(&[
            "CREATE TABLE cargo (manifest TEXT, tonnage REAL)",
            "INSERT INTO cargo VALUES ('m', 1.0)",
        ]);
        let report = bootstrap(&watch_ontology(), "SHIP", &conn).unwrap();
        assert!(report.candidates.is_empty());
        assert_eq!(report.proposals.len(), 1);
        assert_eq!(report.proposals[0].name, "cargo");
        assert_eq!(report.proposals[0].properties, vec!["manifest", "tonnage"]);
    }
}
