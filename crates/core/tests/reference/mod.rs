//! Tests-only reference generator: `s2s_core::instance::generate` as it
//! stood before sorted emission, kept verbatim — triples pushed
//! in record order with the predicates in column order and referenced
//! individuals' types in between, every minted IRI `format!`ted, the
//! graph collected from that vector and then materialized — together
//! with the private helpers it called (`sanitize`, and `typed_literal`
//! with its `parse::<f64>` gate, so the differential test feeds numeric
//! columns only the forms that gate and the value spaces type alike).
//! Only the two metrics counters are left out, and it returns its
//! individuals as a plain vector, each one's values the map it built
//! read in key order. The differential test in `proptests.rs` holds the
//! new generator to the same graph, the same individuals in the same
//! order and the same errors. Beside it,
//! [`holds`]: the residual filter's comparison before it compared in a
//! range. Not part of the library.

use std::collections::BTreeMap;

use s2s_core::extract::{AttributeResult, ExtractionFailure, ExtractionReport, Values};
use s2s_core::instance::{data_namespace, Individual};
use s2s_core::mapping::RecordScenario;
use s2s_core::query::{CondOp, QueryPlan};
use s2s_owl::{Ontology, PropertyKind, Reasoner};
use s2s_rdf::vocab::{rdf as rdfv, xsd};
use s2s_rdf::{Graph, Iri, Literal, Term, Triple};

/// One attribute of one source, with everything about it that does not
/// change from record to record resolved once.
struct Column<'a> {
    property: &'a Iri,
    values: &'a Values,
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
    }
}

/// What [`generate`] returns: an `InstanceSet`'s fields, the
/// individuals as they were built.
#[derive(Debug)]
pub struct Answer {
    pub graph: Graph,
    pub individuals: Vec<Individual>,
    pub errors: Vec<ExtractionFailure>,
    pub completeness: f64,
    pub round_trips: u64,
}

/// The parent's `s2s_core::instance::generate`.
pub fn generate(ontology: &Ontology, plan: &QueryPlan, report: &ExtractionReport) -> Answer {
    let data_ns = data_namespace(ontology);
    let rdf_type = rdfv::type_();
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
                source: source.into(),
                values: values.into_iter().collect(),
            });
        }
    }

    // One sorted bulk build, then supertypes and inferred typings.
    let mut graph: Graph = triples.into_iter().collect();
    Reasoner::new(ontology).materialize(&mut graph);

    Answer {
        graph,
        individuals,
        errors: report.failures.clone(),
        completeness: report.completeness(),
        round_trips: report.sources.iter().map(|r| r.attempts).sum(),
    }
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

/// `Comparand::test` as it stood before a condition compared in its
/// property's range: numeric when both sides parse as `f64` (the
/// candidate with the whitespace around it ignored), bytes otherwise.
/// Kept verbatim (the constant's reading and the test in one function)
/// for the lexical-form property test, on the forms where it and the
/// value spaces agree.
pub fn holds(op: CondOp, candidate: &str, constant: &str) -> bool {
    if op == CondOp::Like {
        return s2s_textmatch::like_match(candidate, constant);
    }
    let number = constant.parse::<f64>().ok();
    let numbers = number.and_then(|b| candidate.trim().parse::<f64>().ok().map(|a| (a, b)));
    let ord = match numbers {
        Some((a, b)) => a.partial_cmp(&b),
        None => Some(candidate.cmp(constant)),
    };
    let Some(ord) = ord else { return false };
    match op {
        CondOp::Eq => ord.is_eq(),
        CondOp::Ne => ord.is_ne(),
        CondOp::Lt => ord.is_lt(),
        CondOp::Le => ord.is_le(),
        CondOp::Gt => ord.is_gt(),
        CondOp::Ge => ord.is_ge(),
        CondOp::Like => unreachable!("handled above"),
    }
}
