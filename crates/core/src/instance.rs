//! The Instance Generator (paper §2.6).
//!
//! "This module serializes the output data format and handles the
//! errors from the queries and from the extraction phases. […] The
//! ontology population process (OWL instance generation) is executed in
//! an automatic way" — because the extracted fragments are keyed by
//! ontology attribute paths, so assembling individuals is direct
//! mapping.
//!
//! Record grouping: within one source, multi-record attribute value
//! lists are positionally aligned (record *i* gets the *i*-th value of
//! every attribute); single-record attributes apply to every record of
//! the source. One individual is generated per `(source, record)`,
//! filtered by the query conditions.

use std::collections::BTreeMap;

use s2s_owl::{Ontology, PropertyKind, Reasoner};
use s2s_rdf::turtle::PrefixMap;
use s2s_rdf::vocab::{rdf as rdfv, xsd};
use s2s_rdf::{Graph, Iri, Literal, Term, Triple};

use crate::extract::{AttributeResult, ExtractionFailure, ExtractionReport};
use crate::mapping::RecordScenario;
use crate::query::QueryPlan;

/// A generated ontology individual, kept in structured form alongside
/// the RDF graph for convenient inspection.
#[derive(Debug, Clone, PartialEq)]
pub struct Individual {
    /// The minted IRI.
    pub iri: Iri,
    /// The class the individual instantiates.
    pub class: Iri,
    /// The source that contributed it.
    pub source: String,
    /// Property values (datatype and object properties alike, as raw
    /// strings).
    pub values: BTreeMap<Iri, Vec<String>>,
}

impl Individual {
    /// The first value of `property`, if any.
    pub fn value(&self, property: &Iri) -> Option<&str> {
        self.values.get(property).and_then(|v| v.first()).map(String::as_str)
    }
}

/// The generated output: OWL instances plus the error report.
#[derive(Debug, Clone, PartialEq)]
pub struct InstanceSet {
    /// The RDF graph holding all individuals (types materialized).
    pub graph: Graph,
    /// Structured view of the individuals that passed the conditions.
    pub individuals: Vec<Individual>,
    /// Extraction failures carried through for reporting (§2.6: the
    /// generator "is responsible for providing information about any
    /// error that has occurred during the extraction process or in the
    /// query").
    pub errors: Vec<ExtractionFailure>,
    /// Fraction of requested attributes answered (`1.0` = complete);
    /// degraded results annotate their rendered output with it.
    pub completeness: f64,
    /// Endpoint round trips (attempts) spent producing this set — the
    /// observable batching win: a batched query makes one trip per
    /// source instead of one per attribute.
    pub round_trips: u64,
}

/// Output serialization formats (§2.6: "the S2S middleware supports the
/// output format OWL, but other outputs can easily be adapted").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutputFormat {
    /// OWL instances in RDF/XML — the paper's native output.
    OwlRdfXml,
    /// Turtle.
    Turtle,
    /// N-Triples.
    NTriples,
    /// Plain XML (ontology-shaped element tree).
    Xml,
    /// Plain text, one `subject property value` line per triple.
    Text,
}

/// Options for [`generate_with_options`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GenerateOptions {
    /// Attach provenance triples (`s2sprov:extractedFrom "<source id>"`)
    /// to every generated individual.
    pub provenance: bool,
}

/// The provenance property IRI used when [`GenerateOptions::provenance`]
/// is enabled.
pub fn provenance_property() -> Iri {
    Iri::new("http://s2s.middleware/prov#extractedFrom").expect("valid")
}

/// Generates OWL instances from an extraction report (no provenance).
///
/// Individuals failing the plan's conditions are dropped; individuals
/// from object-property values are minted and typed by the property
/// range.
pub fn generate(ontology: &Ontology, plan: &QueryPlan, report: &ExtractionReport) -> InstanceSet {
    generate_with_options(ontology, plan, report, GenerateOptions::default())
}

/// One attribute of one source, with everything about it that does not
/// change from record to record resolved once.
struct Column<'a> {
    property: &'a Iri,
    values: &'a [String],
    scenario: RecordScenario,
    /// Whether the plan's projection (if any) outputs the property.
    projected: bool,
    /// The first declared range of the property, if it is declared.
    range: Option<&'a Iri>,
    /// For object properties: the IRI prefix referenced individuals are
    /// minted under.
    reference_prefix: Option<String>,
}

impl<'a> Column<'a> {
    /// The column's value for record `i`: a single-record value applies
    /// to every record.
    fn value(&self, i: usize) -> Option<&'a str> {
        match self.scenario {
            RecordScenario::SingleRecord => self.values.first(),
            RecordScenario::MultiRecord => self.values.get(i),
        }
        .map(String::as_str)
    }
}

/// Like [`generate`], with options.
pub fn generate_with_options(
    ontology: &Ontology,
    plan: &QueryPlan,
    report: &ExtractionReport,
    options: GenerateOptions,
) -> InstanceSet {
    let data_ns = data_namespace(ontology);
    let rdf_type = rdfv::type_();
    let provenance = options.provenance.then(provenance_property);
    let mut triples: Vec<Triple> = Vec::new();
    let mut individuals = Vec::new();

    // Group results by source.
    let mut by_source: BTreeMap<&str, Vec<&AttributeResult>> = BTreeMap::new();
    for r in &report.results {
        by_source.entry(r.mapping.source().as_str()).or_default().push(r);
    }

    for (source, results) in by_source {
        let columns: Vec<Column<'_>> = results
            .iter()
            .map(|r| {
                let property = r.mapping.property();
                let def = ontology.property(property);
                let range = def.and_then(|d| d.ranges().next());
                Column {
                    property,
                    values: &r.values,
                    scenario: r.mapping.scenario(),
                    projected: plan.projection.as_ref().is_none_or(|p| p.contains(property)),
                    range,
                    reference_prefix: def.filter(|d| d.kind() == PropertyKind::Object).map(|_| {
                        let class =
                            range.map_or("ref".into(), |r| r.local_name().to_ascii_lowercase());
                        format!("{data_ns}{class}/")
                    }),
                }
            })
            .collect();

        // Record count: single-record attributes contribute 1; others
        // their value count.
        let records = columns
            .iter()
            .map(|c| match c.scenario {
                RecordScenario::SingleRecord => 1,
                RecordScenario::MultiRecord => c.values.len(),
            })
            .max()
            .unwrap_or(0);

        // The individual's class: the most specific class among the
        // contributing mappings (a record fed by `watch`-level mappings
        // is a Watch even when the query selected `product`).
        let mut record_class = &plan.class;
        for r in &results {
            if ontology.is_subclass_of(r.mapping.class(), record_class) {
                record_class = r.mapping.class();
            }
        }
        let iri_prefix = format!(
            "{data_ns}{}/{}/",
            record_class.local_name().to_ascii_lowercase(),
            sanitize(source)
        );

        let mut record: Vec<(&Iri, &str)> = Vec::with_capacity(columns.len());
        for i in 0..records {
            // The condition tree sees the record as borrowed pairs;
            // nothing is allocated for a record it rejects.
            record.clear();
            record.extend(columns.iter().filter_map(|c| Some((c.property, c.value(i)?))));
            if record.is_empty() || plan.condition.as_ref().is_some_and(|t| !t.matches(&record)) {
                continue;
            }
            // The projection applies after the condition: condition
            // attributes may be filtered on without being output.
            if !columns.iter().any(|c| c.projected && c.value(i).is_some()) {
                continue;
            }
            let iri = Iri::new(format!("{iri_prefix}{i}"))
                .expect("minted IRIs are valid by construction");
            triples.push(Triple::new(iri.clone(), rdf_type.clone(), record_class.clone()));
            if let Some(provenance) = &provenance {
                triples.push(Triple::new(iri.clone(), provenance.clone(), Literal::string(source)));
            }
            let mut values: BTreeMap<Iri, Vec<String>> = BTreeMap::new();
            for c in columns.iter().filter(|c| c.projected) {
                let Some(v) = c.value(i) else { continue };
                values.entry(c.property.clone()).or_default().push(v.to_string());
                let object = match &c.reference_prefix {
                    // Mint an individual for the referenced entity.
                    Some(prefix) => match Iri::new(format!("{prefix}{}", sanitize(v))) {
                        Ok(reference) => {
                            if let Some(range) = c.range {
                                triples.push(Triple::new(
                                    reference.clone(),
                                    rdf_type.clone(),
                                    range.clone(),
                                ));
                            }
                            Term::from(reference)
                        }
                        Err(_) => Term::from(Literal::string(v)),
                    },
                    None => Term::from(typed_literal(c.range, v)),
                };
                triples.push(Triple::new(iri.clone(), c.property.clone(), object));
            }
            individuals.push(Individual {
                iri,
                class: record_class.clone(),
                source: source.to_string(),
                values,
            });
        }
    }

    // One sorted bulk build, then supertypes and inferred typings.
    let mut graph: Graph = triples.into_iter().collect();
    Reasoner::new(ontology).materialize(&mut graph);

    if s2s_obs::enabled() {
        let m = s2s_obs::global();
        m.counter("s2s_instances_generated_total").add(individuals.len() as u64);
        m.counter("s2s_instance_triples_total").add(graph.len() as u64);
    }

    InstanceSet {
        graph,
        individuals,
        errors: report.failures.clone(),
        completeness: report.completeness(),
        round_trips: report.resilience.values().map(|h| h.attempts).sum(),
    }
}

/// Serializes an instance set in the requested format.
pub fn render(set: &InstanceSet, ontology: &Ontology, format: OutputFormat) -> String {
    let mut prefixes = PrefixMap::with_well_known();
    prefixes.insert("s", ontology.namespace());
    prefixes.insert("d", data_namespace(ontology));
    match format {
        OutputFormat::OwlRdfXml => s2s_rdf::rdfxml::serialize(&set.graph, &prefixes),
        OutputFormat::Turtle => s2s_rdf::turtle::serialize(&set.graph, &prefixes),
        OutputFormat::NTriples => s2s_rdf::ntriples::serialize(&set.graph),
        OutputFormat::Xml => render_xml(set),
        OutputFormat::Text => render_text(set),
    }
}

fn render_xml(set: &InstanceSet) -> String {
    use s2s_xml::Element;
    let mut root = Element::new("instances");
    // Degraded results carry their completeness so consumers can tell
    // a partial answer from a full one (§2.6 error reporting).
    if set.completeness < 1.0 {
        root = root.with_attribute("completeness", format!("{:.3}", set.completeness));
    }
    // Execution-cost telemetry (how many wire exchanges produced this
    // set), omitted when zero.
    if set.round_trips > 0 {
        root = root.with_attribute("round-trips", set.round_trips.to_string());
    }
    for ind in &set.individuals {
        let mut e = Element::new(ind.class.local_name().to_string())
            .with_attribute("about", ind.iri.as_str())
            .with_attribute("source", ind.source.clone());
        for (p, values) in &ind.values {
            for v in values {
                e = e.with_child(Element::new(p.local_name().to_string()).with_text(v.clone()));
            }
        }
        root = root.with_child(e);
    }
    for err in &set.errors {
        root = root.with_child(
            Element::new("error")
                .with_attribute("attribute", err.attribute.clone())
                .with_attribute("source", err.source.clone())
                .with_text(err.error.to_string()),
        );
    }
    s2s_xml::serialize(&s2s_xml::Document::new(root))
}

fn render_text(set: &InstanceSet) -> String {
    let mut out = String::new();
    for ind in &set.individuals {
        out.push_str(&format!(
            "{} [{}] from {}\n",
            ind.iri.as_str(),
            ind.class.local_name(),
            ind.source
        ));
        for (p, values) in &ind.values {
            for v in values {
                out.push_str(&format!("  {} = {v}\n", p.local_name()));
            }
        }
    }
    for err in &set.errors {
        out.push_str(&format!("! {}/{}: {}\n", err.source, err.attribute, err.error));
    }
    if set.completeness < 1.0 {
        out.push_str(&format!("! degraded result: completeness {:.3}\n", set.completeness));
    }
    if set.round_trips > 0 {
        out.push_str(&format!("# network round trips: {}\n", set.round_trips));
    }
    out
}

/// The namespace individuals are minted under.
pub fn data_namespace(ontology: &Ontology) -> String {
    let ns = ontology.namespace();
    let trimmed = ns.trim_end_matches(['#', '/']);
    format!("{trimmed}/data/")
}

fn sanitize(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        if c.is_ascii_alphanumeric() || c == '-' || c == '_' || c == '.' {
            out.push(c.to_ascii_lowercase());
        } else {
            out.push('-');
        }
    }
    if out.is_empty() {
        out.push('x');
    }
    out
}

fn typed_literal(range: Option<&Iri>, value: &str) -> Literal {
    match range.map(Iri::as_str) {
        Some(xsd::INTEGER) => value
            .trim()
            .parse::<i64>()
            .map(Literal::integer)
            .unwrap_or_else(|_| Literal::string(value)),
        Some(xsd::DECIMAL) | Some(xsd::DOUBLE) => value
            .trim()
            .parse::<f64>()
            .map(|_| Literal::typed(value.trim(), xsd::decimal()))
            .unwrap_or_else(|_| Literal::string(value)),
        Some(xsd::BOOLEAN) => match value.trim() {
            "true" | "1" => Literal::boolean(true),
            "false" | "0" => Literal::boolean(false),
            _ => Literal::string(value),
        },
        _ => Literal::string(value),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::S2sError;
    use crate::extract::{AttributeResult, ExtractionReport};
    use crate::mapping::{ExtractionRule, MappingModule, RecordScenario};
    use crate::query::{parse, plan};
    use s2s_netsim::SimDuration;
    use s2s_owl::Ontology;

    fn onto() -> Ontology {
        Ontology::builder("http://example.org/schema#")
            .class("Product", None)
            .unwrap()
            .class("Provider", None)
            .unwrap()
            .datatype_property("brand", "Product", xsd::STRING)
            .unwrap()
            .datatype_property("price", "Product", xsd::DECIMAL)
            .unwrap()
            .object_property("provider", "Product", "Provider")
            .unwrap()
            .build()
            .unwrap()
    }

    /// Builds an AttributeResult by registering a throwaway mapping.
    fn result(
        o: &Ontology,
        path: &str,
        source: &str,
        scenario: RecordScenario,
        values: &[&str],
    ) -> AttributeResult {
        let mut m = MappingModule::new();
        m.register(
            o,
            path.parse().unwrap(),
            ExtractionRule::TextRegex { pattern: "x".into(), group: 0 },
            source.into(),
            scenario,
        )
        .unwrap();
        let mapping = m.iter().next().unwrap().clone();
        AttributeResult {
            mapping,
            values: values.iter().map(|s| s.to_string()).collect(),
            elapsed: SimDuration::from_micros(10),
        }
    }

    fn report(results: Vec<AttributeResult>) -> ExtractionReport {
        ExtractionReport { results, ..Default::default() }
    }

    #[test]
    fn multi_record_alignment() {
        let o = onto();
        let p = plan(&parse("SELECT product").unwrap(), &o).unwrap();
        let rep = report(vec![
            result(
                &o,
                "thing.product.brand",
                "DB",
                RecordScenario::MultiRecord,
                &["Seiko", "Casio"],
            ),
            result(
                &o,
                "thing.product.price",
                "DB",
                RecordScenario::MultiRecord,
                &["129.99", "59.5"],
            ),
        ]);
        let set = generate(&o, &p, &rep);
        assert_eq!(set.individuals.len(), 2);
        let brand = o.property_iri("brand").unwrap();
        let price = o.property_iri("price").unwrap();
        assert_eq!(set.individuals[0].value(&brand), Some("Seiko"));
        assert_eq!(set.individuals[0].value(&price), Some("129.99"));
        assert_eq!(set.individuals[1].value(&brand), Some("Casio"));
        assert_eq!(set.individuals[1].value(&price), Some("59.5"));
    }

    #[test]
    fn single_record_value_shared_across_records() {
        let o = onto();
        let p = plan(&parse("SELECT product").unwrap(), &o).unwrap();
        let rep = report(vec![
            result(&o, "thing.product.brand", "S", RecordScenario::MultiRecord, &["A", "B"]),
            result(&o, "thing.product.provider", "S", RecordScenario::SingleRecord, &["TimeHouse"]),
        ]);
        let set = generate(&o, &p, &rep);
        assert_eq!(set.individuals.len(), 2);
        let provider = o.property_iri("provider").unwrap();
        assert_eq!(set.individuals[0].value(&provider), Some("TimeHouse"));
        assert_eq!(set.individuals[1].value(&provider), Some("TimeHouse"));
    }

    #[test]
    fn conditions_filter_individuals() {
        let o = onto();
        let p = plan(&parse("SELECT product WHERE brand='Seiko'").unwrap(), &o).unwrap();
        let rep = report(vec![result(
            &o,
            "thing.product.brand",
            "DB",
            RecordScenario::MultiRecord,
            &["Seiko", "Casio", "Seiko"],
        )]);
        let set = generate(&o, &p, &rep);
        assert_eq!(set.individuals.len(), 2);
        let brand = o.property_iri("brand").unwrap();
        assert!(set.individuals.iter().all(|i| i.value(&brand) == Some("Seiko")));
    }

    #[test]
    fn missing_condition_property_excludes() {
        let o = onto();
        let p = plan(&parse("SELECT product WHERE price<100").unwrap(), &o).unwrap();
        let rep = report(vec![result(
            &o,
            "thing.product.brand",
            "DB",
            RecordScenario::MultiRecord,
            &["Seiko"],
        )]);
        let set = generate(&o, &p, &rep);
        assert!(set.individuals.is_empty());
    }

    #[test]
    fn object_property_values_become_typed_individuals() {
        let o = onto();
        let p = plan(&parse("SELECT product").unwrap(), &o).unwrap();
        let rep = report(vec![
            result(&o, "thing.product.brand", "DB", RecordScenario::SingleRecord, &["Seiko"]),
            result(
                &o,
                "thing.product.provider",
                "DB",
                RecordScenario::SingleRecord,
                &["TimeHouse"],
            ),
        ]);
        let set = generate(&o, &p, &rep);
        let provider_class = o.class_iri("Provider").unwrap();
        let providers: Vec<_> = set.graph.instances_of(&provider_class).collect();
        assert_eq!(providers.len(), 1);
        assert!(providers[0].as_iri().unwrap().as_str().contains("provider/timehouse"));
    }

    #[test]
    fn graph_gets_typed_literals() {
        let o = onto();
        let p = plan(&parse("SELECT product").unwrap(), &o).unwrap();
        let rep = report(vec![result(
            &o,
            "thing.product.price",
            "DB",
            RecordScenario::SingleRecord,
            &["59.5"],
        )]);
        let set = generate(&o, &p, &rep);
        let price = o.property_iri("price").unwrap();
        let lit = set
            .graph
            .match_pattern(None, Some(&price), None)
            .next()
            .unwrap()
            .object()
            .as_literal()
            .cloned()
            .unwrap();
        assert_eq!(lit.datatype().as_str(), xsd::DECIMAL);
        assert_eq!(lit.as_decimal(), Some(59.5));
    }

    #[test]
    fn errors_carried_into_output() {
        let o = onto();
        let p = plan(&parse("SELECT product").unwrap(), &o).unwrap();
        let mut rep = report(vec![result(
            &o,
            "thing.product.brand",
            "DB",
            RecordScenario::SingleRecord,
            &["Seiko"],
        )]);
        rep.failures.push(crate::extract::ExtractionFailure {
            attribute: "thing.product.price".into(),
            source: "DB2".into(),
            error: S2sError::UnknownSource { id: "DB2".into() },
        });
        let set = generate(&o, &p, &rep);
        assert_eq!(set.errors.len(), 1);
        let xml = render(&set, &o, OutputFormat::Xml);
        assert!(xml.contains("<error"), "{xml}");
        let text = render(&set, &o, OutputFormat::Text);
        assert!(text.contains("! DB2/thing.product.price"), "{text}");
    }

    #[test]
    fn all_formats_render_nonempty() {
        let o = onto();
        let p = plan(&parse("SELECT product").unwrap(), &o).unwrap();
        let rep = report(vec![result(
            &o,
            "thing.product.brand",
            "DB",
            RecordScenario::SingleRecord,
            &["Seiko"],
        )]);
        let set = generate(&o, &p, &rep);
        for fmt in [
            OutputFormat::OwlRdfXml,
            OutputFormat::Turtle,
            OutputFormat::NTriples,
            OutputFormat::Xml,
            OutputFormat::Text,
        ] {
            let out = render(&set, &o, fmt);
            assert!(out.contains("Seiko"), "{fmt:?}: {out}");
        }
        // The OWL output uses a typed node element (Fig. 2 style).
        let owl = render(&set, &o, OutputFormat::OwlRdfXml);
        assert!(owl.contains("<s:Product"), "{owl}");
    }

    #[test]
    fn turtle_output_reparses_to_same_graph() {
        let o = onto();
        let p = plan(&parse("SELECT product").unwrap(), &o).unwrap();
        let rep = report(vec![
            result(&o, "thing.product.brand", "DB", RecordScenario::MultiRecord, &["A", "B"]),
            result(&o, "thing.product.price", "DB", RecordScenario::MultiRecord, &["1", "2.5"]),
        ]);
        let set = generate(&o, &p, &rep);
        let ttl = render(&set, &o, OutputFormat::Turtle);
        let parsed = s2s_rdf::turtle::parse(&ttl).unwrap();
        assert_eq!(parsed, set.graph);
    }

    #[test]
    fn generate_and_render_never_build_the_derived_indexes() {
        let o = onto();
        let p = plan(&parse("SELECT product WHERE price<100").unwrap(), &o).unwrap();
        let rep = report(vec![
            result(&o, "thing.product.brand", "DB", RecordScenario::MultiRecord, &["A", "B"]),
            result(&o, "thing.product.price", "DB", RecordScenario::MultiRecord, &["1", "250"]),
            result(&o, "thing.product.provider", "DB", RecordScenario::SingleRecord, &["Acme"]),
        ]);
        let set = generate_with_options(&o, &p, &rep, GenerateOptions { provenance: true });
        assert_eq!(set.individuals.len(), 1);
        // type + provenance + brand + price + provider, the provider's
        // own type: nothing between extraction and output asks a
        // predicate- or object-led question.
        assert_eq!(set.graph.len(), 6);
        for fmt in [
            OutputFormat::OwlRdfXml,
            OutputFormat::Turtle,
            OutputFormat::NTriples,
            OutputFormat::Xml,
            OutputFormat::Text,
        ] {
            assert!(!render(&set, &o, fmt).is_empty());
        }
        assert_eq!(set.graph.derived_indexes(), (false, false));
    }

    #[test]
    fn empty_report_yields_empty_set() {
        let o = onto();
        let p = plan(&parse("SELECT product").unwrap(), &o).unwrap();
        let set = generate(&o, &p, &report(vec![]));
        assert!(set.individuals.is_empty());
        assert!(set.graph.is_empty());
    }
}
