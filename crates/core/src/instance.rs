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
//! the source. One individual is generated per `(source, record)`
//! that the query's condition holds for: a source that ran filtered
//! hands over only those (its columns carry their record numbers), and
//! any other is tested here a record at a time, with the condition
//! folded against its columns (`planner::Fold`).
//!
//! Entailment is per mapping, not per record: what the reasoner derives
//! from a record's fact depends on the fact's property and the kind of
//! its object, never on its values, so the reasoner closes one
//! placeholder fact per record class and per (property, object kind)
//! once a query (`close`), and each record gets a stamped copy.

use std::collections::BTreeMap;
use std::fmt;
use std::ops::{Deref, Range};
use std::sync::{Arc, OnceLock};

use s2s_owl::{Ontology, PropertyKind, Reasoner};
use s2s_rdf::turtle::PrefixMap;
use s2s_rdf::vocab::{rdf as rdfv, xsd};
use s2s_rdf::{Graph, Iri, Literal, Term, Triple};
use s2s_textmatch::ValueSpace;

use crate::extract::{AttributeResult, ExtractionFailure, ExtractionReport, Values};
use crate::mapping::RecordScenario;
use crate::planner::Fold;
use crate::query::{condition_matches, QueryPlan, ResolvedCondition};

/// A generated ontology individual: one record of an answer, read from
/// its [`Individuals`] view.
#[derive(Debug, Clone, PartialEq)]
pub struct Individual {
    /// The minted IRI.
    pub iri: Iri,
    /// The class the individual instantiates.
    pub class: Iri,
    /// The source that contributed it: one id per source per answer,
    /// shared by that source's individuals.
    pub source: Arc<str>,
    /// Property values (datatype and object properties alike, as raw
    /// strings), sorted by property, a property's values in column
    /// order.
    pub values: Vec<(Iri, Vec<String>)>,
}

impl Individual {
    /// The first value of `property`, if any.
    pub fn value(&self, property: &Iri) -> Option<&str> {
        let at = self.values.binary_search_by(|(p, _)| p.cmp(property)).ok()?;
        self.values[at].1.first().map(String::as_str)
    }
}

/// What an answer's individuals are derived from, written by
/// [`generate`] as it keeps each record: no value is its own block.
#[derive(Debug, Clone, Default, PartialEq)]
struct Records {
    /// Per source that kept a record: its id and its record class (an
    /// index into `classes`).
    sources: Vec<(Arc<str>, usize)>,
    /// Per individual: its IRI, its source (an index into `sources`) and
    /// the end of its values in `values`.
    individuals: Vec<(Iri, usize, usize)>,
    /// Per value: its property (an index into `properties`) and the end
    /// of its text in `text`, where the value before it ends its start.
    values: Vec<(usize, usize)>,
    /// Per source that kept a record, its class, unless the source
    /// before it had the same.
    classes: Vec<Iri>,
    /// Per source that kept a record, its projected columns' properties
    /// in property order, unless the source before it had the same: like
    /// shards of a fan-out share one entry.
    properties: Vec<Iri>,
    /// Every kept value's raw text, one after another.
    text: String,
}

impl Records {
    /// Value `j`: its property and its text.
    fn value(&self, j: usize) -> (&Iri, &str) {
        let start = j.checked_sub(1).map_or(0, |before| self.values[before].1);
        let (property, end) = self.values[j];
        (&self.properties[property], &self.text[start..end])
    }

    /// Each individual's IRI, its source's id, its class and the range
    /// of its values, in record order.
    fn iter(&self) -> impl Iterator<Item = (&Iri, &Arc<str>, &Iri, Range<usize>)> {
        let mut start = 0;
        self.individuals.iter().map(move |(iri, source, end)| {
            let values = start..*end;
            start = *end;
            let (id, class) = &self.sources[*source];
            (iri, id, &self.classes[*class], values)
        })
    }

    /// The individuals as structured values: per value a `String`, per
    /// property a `Vec` — what the answer holds of them, copied out.
    fn build(&self) -> Vec<Individual> {
        let individual = |(iri, source, class, values): (&Iri, &Arc<str>, &Iri, Range<_>)| {
            let mut grouped: Vec<(Iri, Vec<String>)> = Vec::with_capacity(values.len());
            for j in values {
                let (property, value) = self.value(j);
                match grouped.last_mut() {
                    Some((last, values)) if last == property => values.push(value.to_string()),
                    _ => grouped.push((property.clone(), vec![value.to_string()])),
                }
            }
            Individual {
                iri: iri.clone(),
                class: class.clone(),
                source: Arc::clone(source),
                values: grouped,
            }
        };
        self.iter().map(individual).collect()
    }
}

/// The individuals of an answer: a view that reads as `[Individual]`,
/// built on its first read from the record list the generator wrote,
/// once per copy. [`Individuals::len`] and [`Individuals::is_empty`]
/// read the list and build nothing; the RDF renderings never read the
/// view, nor do plain XML and text, which read the list. A clone copies
/// the list, not the view, and builds its own view when it is read.
#[derive(Default)]
pub struct Individuals {
    records: Records,
    view: OnceLock<Vec<Individual>>,
}

impl Individuals {
    /// How many individuals the answer holds, without building the view.
    pub fn len(&self) -> usize {
        self.records.individuals.len()
    }

    /// Whether the answer holds no individual, without building the
    /// view.
    pub fn is_empty(&self) -> bool {
        self.records.individuals.is_empty()
    }
}

impl Deref for Individuals {
    type Target = [Individual];

    fn deref(&self) -> &[Individual] {
        self.view.get_or_init(|| self.records.build())
    }
}

impl Clone for Individuals {
    fn clone(&self) -> Self {
        Individuals { records: self.records.clone(), view: OnceLock::new() }
    }
}

impl PartialEq for Individuals {
    fn eq(&self, other: &Self) -> bool {
        self.records == other.records || **self == **other
    }
}

impl fmt::Debug for Individuals {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// The generated output: OWL instances plus the error report. The
/// default is the empty answer of a query that answered nothing
/// (completeness `0`), as a shed query's.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct InstanceSet {
    /// The RDF graph holding all individuals (types materialized).
    pub graph: Graph,
    /// The individuals that passed the conditions: a view built on its
    /// first read.
    pub individuals: Individuals,
    /// Extraction failures carried through for reporting (§2.6: the
    /// generator "is responsible for providing information about any
    /// error that has occurred during the extraction process or in the
    /// query").
    pub errors: Vec<ExtractionFailure>,
    /// Fraction of requested attributes answered (`1.0` = complete);
    /// degraded results annotate their rendered output with it.
    pub completeness: f64,
    /// Endpoint round trips (attempts) spent producing this set: one
    /// per source, whose attributes share one exchange.
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

/// One attribute of one source, with everything about it that does not
/// change from record to record resolved once.
struct Column<'a> {
    property: &'a Iri,
    values: &'a Values,
    scenario: RecordScenario,
    /// Whether the plan's projection (if any) outputs the property.
    projected: bool,
    /// What a value becomes as a literal, from the property's range.
    typing: Typing<'a>,
    /// For object properties: the IRI prefix referenced individuals are
    /// minted under.
    reference_prefix: Option<Iri>,
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

    /// The fact one of the column's values asserts, as a template.
    fn template(&self) -> Template<'a> {
        let kind = match self.reference_prefix {
            Some(_) => ObjectKind::Reference,
            None => ObjectKind::Literal,
        };
        Template::Value(self.property, kind)
    }

    /// The object `value` becomes. An object property mints an
    /// individual for the referenced entity, its IRI composed in
    /// `buffer`; any other column yields a literal typed by the range.
    fn object(&self, value: &str, buffer: &mut String) -> Term {
        let Some(prefix) = &self.reference_prefix else {
            return Term::from(self.typing.literal(value));
        };
        buffer.clear();
        buffer.push_str(prefix.as_str());
        push_sanitized(buffer, value);
        Term::from(
            Iri::new_under(prefix, buffer).expect("a sanitized segment is a valid IRI suffix"),
        )
    }
}

/// What a column's values become in the graph: the closure of a fact
/// depends on whether its object can be a subject.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum ObjectKind {
    /// A literal.
    Literal,
    /// A minted individual (an object property's value).
    Reference,
}

/// A fact with placeholders for its terms — `S` the record, `O` the
/// value — whose closure every record's copy of the fact shares.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Template<'a> {
    /// `(S, rdf:type, class)`: a record's class.
    Class(&'a Iri),
    /// `(S, property, O)` with `O` of the kind; for a reference also
    /// `(O, rdf:type, range)`, the generator's typing of what it mints.
    Value(&'a Iri, ObjectKind),
}

/// A term of a template's closure, by where a record's copy takes it
/// from.
#[derive(Debug, Clone)]
enum Node {
    /// The record (`S`).
    Subject,
    /// The value (`O`).
    Object,
    /// The same term for every record: a class, mostly.
    Constant(Term),
}

impl Node {
    /// Where a block row takes this term from, when its template's `O`
    /// is filled by `object`.
    fn fill(&self, object: &Fill) -> Fill {
        match self {
            Node::Subject => Fill::Subject,
            Node::Object => object.clone(),
            Node::Constant(term) => Fill::Constant(term.clone()),
        }
    }
}

/// A template's closure, split by subject: every rule copies its
/// premise's subject or object into the subject of what it derives, so a
/// row is about `S` or about `O`.
#[derive(Debug, Default)]
struct Entailed {
    /// `(predicate, object)` of the rows about `S`.
    about_subject: Vec<(Iri, Node)>,
    /// `(predicate, object)` of the rows about `O`: range types,
    /// inverses and what follows from them.
    about_object: Vec<(Iri, Node)>,
}

/// The reasoner's closure of `template` — the one place the generator
/// asks it for anything. The placeholders are IRIs no ontology names and
/// a literal (a value that is not an individual can be no subject); the
/// rules never look inside a subject or object, only at whether it can
/// be a subject, so the closure of a record's fact is this one with the
/// placeholders replaced.
fn close(reasoner: &Reasoner<'_>, template: Template<'_>) -> Entailed {
    let rdf_type = rdfv::type_();
    let subject = Term::from(Iri::new("urn:s2s:template:subject").expect("a valid IRI"));
    let (facts, object) = match template {
        Template::Class(class) => {
            let fact = Triple::new(subject.clone(), rdf_type, class.clone());
            (vec![fact], None)
        }
        Template::Value(property, ObjectKind::Literal) => {
            let object = Term::from(Literal::string(""));
            (vec![Triple::new(subject.clone(), property.clone(), object.clone())], Some(object))
        }
        Template::Value(property, ObjectKind::Reference) => {
            let object = Term::from(Iri::new("urn:s2s:template:object").expect("a valid IRI"));
            let mut facts = vec![Triple::new(subject.clone(), property.clone(), object.clone())];
            let range = reasoner.ontology().property(property).and_then(|d| d.ranges().next());
            if let Some(range) = range {
                facts.push(Triple::new(object.clone(), rdf_type, range.clone()));
            }
            (facts, Some(object))
        }
    };
    let node = |term: Term| match term {
        term if term == subject => Node::Subject,
        term if Some(&term) == object.as_ref() => Node::Object,
        term => Node::Constant(term),
    };
    let mut entailed = Entailed::default();
    for triple in reasoner.materialized(facts) {
        let (about, predicate, value) = triple.into_parts();
        let rows =
            if about == subject { &mut entailed.about_subject } else { &mut entailed.about_object };
        rows.push((predicate, node(value)));
    }
    entailed
}

/// A row of a source's block: one predicate and where its object comes
/// from, entailed for every record (by its class, `gate: None`) or by a
/// column's value (`gate: Some(column)`, emitted only for the records
/// that have one).
struct Row {
    predicate: Iri,
    object: Fill,
    gate: Option<usize>,
    /// Whether the row before it has the same predicate and object: a run
    /// of such rows yields one triple, if any of their gates holds.
    repeat: bool,
}

impl Row {
    /// The row's predicate and object: the block's order, and equal for
    /// rows that yield one triple.
    fn key(&self) -> (&Iri, &Fill) {
        (&self.predicate, &self.object)
    }
}

/// Where a block row's object comes from.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum Fill {
    /// The same term for every record: a class, mostly.
    Constant(Term),
    /// The record itself.
    Subject,
    /// The record's value of a column.
    Value(usize),
}

/// What a source's block is made from: its record class's template and,
/// per column, the column's template if it is projected.
#[derive(Debug, Default, PartialEq)]
struct Shape<'a> {
    class: Option<&'a Iri>,
    columns: Vec<Option<Template<'a>>>,
}

/// What the templates of a source's record class and its projected
/// columns make of each of its records. It depends on nothing
/// else, so sources of one shape — a fan-out over like shards — share
/// one.
#[derive(Default)]
struct Block<'a> {
    shape: Shape<'a>,
    /// The rows about the record, sorted by predicate and object.
    rows: Vec<Row>,
    /// Per referencing column, `(predicate, object)` of the rows about
    /// the individual its value mints.
    about_references: Vec<(usize, Vec<(Iri, Fill)>)>,
    /// The columns whose value fills more than one row (a sub-property's
    /// row, rows about the referenced individual): made into a term once
    /// per record and cloned, where any other value becomes its term at
    /// its row.
    shared: Vec<usize>,
    /// The first row of the last run, when it holds for every record
    /// (it is ungated): every record's last triple, which takes the
    /// record's subject rather than a clone of it.
    last: Option<usize>,
}

impl<'a> Block<'a> {
    /// Rebuilds the block for `shape` from its templates' closures,
    /// closing those not closed yet.
    fn build(
        &mut self,
        shape: &Shape<'a>,
        reasoner: &Reasoner<'_>,
        closures: &mut BTreeMap<Template<'a>, Entailed>,
    ) {
        self.shape.class = shape.class;
        self.shape.columns.clone_from(&shape.columns);
        self.rows.clear();
        self.about_references.clear();
        // Each template with where its `O` comes from and the column that
        // must have a value for its rows to hold.
        let class = shape.class.map(|class| (Template::Class(class), Fill::Subject, None));
        let columns = shape.columns.iter().enumerate();
        let values = columns.filter_map(|(k, t)| Some(((*t)?, Fill::Value(k), Some(k))));
        for (template, value, gate) in class.into_iter().chain(values) {
            let entailed = closures.entry(template).or_insert_with(|| close(reasoner, template));
            for (predicate, node) in &entailed.about_subject {
                let object = node.fill(&value);
                self.rows.push(Row { predicate: predicate.clone(), object, gate, repeat: false });
            }
            if let Some(k) = gate.filter(|_| !entailed.about_object.is_empty()) {
                let rows = entailed.about_object.iter();
                let rows = rows.map(|(predicate, node)| (predicate.clone(), node.fill(&value)));
                self.about_references.push((k, rows.collect()));
            }
        }
        self.rows.sort_by(|a, b| a.key().cmp(&b.key()));
        for k in 1..self.rows.len() {
            self.rows[k].repeat = self.rows[k].key() == self.rows[k - 1].key();
        }
        let fills = |k: usize| {
            let rows = self.rows.iter().filter(|r| r.object == Fill::Value(k)).count();
            rows + usize::from(self.about_references.iter().any(|(r, _)| *r == k))
        };
        self.shared = (0..shape.columns.len()).filter(|&k| fills(k) > 1).collect();
        let last_run = self.rows.iter().rposition(|r| !r.repeat);
        self.last = last_run.filter(|&r| self.rows[r].gate.is_none());
    }
}

/// Generates OWL instances from an extraction report.
///
/// Individuals failing the plan's conditions are dropped; individuals
/// from object-property values are minted and typed by the property
/// range.
pub fn generate(ontology: &Ontology, plan: &QueryPlan, report: &ExtractionReport) -> InstanceSet {
    let (triples, records) = emit_triples(ontology, plan, report);
    // Entailments included, in strict SPO order: the vector becomes the
    // graph as it is.
    let graph: Graph = triples.into_iter().collect();

    InstanceSet {
        graph,
        individuals: Individuals { records, view: OnceLock::new() },
        errors: report.failures.clone(),
        completeness: report.completeness(),
        round_trips: crate::ledger::total(&report.sources).sum.attempts,
    }
}

/// The records the report yields under the plan, in record order,
/// and the triples asserted about them together with everything the
/// reasoner entails from those: the graph's triples, repeats allowed.
///
/// Every rule has one premise and only copies its subject and object,
/// so an answer's closure is the union of its facts' closures, and a
/// fact's closure is its template's ([`close`], once per template per
/// call) with the placeholders replaced. A record's block is the rows of
/// its class's closure and of the closures of the columns it has a value
/// in; the rows about a referenced individual go with its value.
///
/// The triples come out in the order the graph will keep them (SPO) as
/// far as the generator can tell without comparing strings: per source,
/// subjects by the decimal-string order of their record number
/// (`…/1, …/10, …/100, …/2`), each subject's predicates in IRI order,
/// the rows about referenced individuals — which sort under a prefix of
/// their own — after everything else. The order lets the graph take the
/// vector as its store without a sort, but the answer never depends on
/// it: source ids that sanitize to one prefix (which the source registry
/// refuses, but a report built by hand can hold), or to prefixes out of
/// id order, merely make the graph sort once.
fn emit_triples(
    ontology: &Ontology,
    plan: &QueryPlan,
    report: &ExtractionReport,
) -> (Vec<Triple>, Records) {
    let data_ns = data_namespace(ontology);
    let reasoner = Reasoner::new(ontology);
    let mut closures: BTreeMap<Template<'_>, Entailed> = BTreeMap::new();
    let mut triples: Vec<Triple> = Vec::new();
    let mut referenced: Vec<Triple> = Vec::new();
    let mut records = Records::default();
    // Reused from source to source: the text being minted, the
    // projected columns in property order, the records of the source
    // that became individuals and their order in the graph, the last
    // block and the shape of the
    // next, the values that fill more than one row, and the condition
    // folded against the source's columns.
    let mut minted = String::new();
    let mut projected: Vec<usize> = Vec::new();
    let mut survivors: Vec<usize> = Vec::new();
    let mut order: Vec<usize> = Vec::new();
    let mut block = Block::default();
    let mut shape = Shape::default();
    let mut objects: Vec<Option<Term>> = Vec::new();
    let mut fold = Fold::default();

    // Group results by source.
    let mut by_source: BTreeMap<&str, Vec<&AttributeResult>> = BTreeMap::new();
    for r in &report.results {
        by_source.entry(r.mapping.source().as_str()).or_default().push(r);
    }

    for (source, results) in by_source {
        // No record of a source whose every column is empty is an
        // individual: nothing is built for it.
        if results.iter().all(|r| r.values.is_empty()) {
            continue;
        }
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
                    typing: Typing::new(range),
                    reference_prefix: def.filter(|d| d.kind() == PropertyKind::Object).map(|_| {
                        let class =
                            range.map_or("ref".into(), |r| r.local_name().to_ascii_lowercase());
                        Iri::new(format!("{data_ns}{class}/"))
                            .expect("valid wherever the record prefix is")
                    }),
                }
            })
            .collect();

        // A record's number: its position in the source's unfiltered
        // statement, which a filtered source's columns carry.
        let numbers = columns.iter().find_map(|c| c.values.records());
        let number = |i: usize| numbers.map_or(i, |numbers| numbers[i] as usize);
        // Record count: a filtered source's kept records; otherwise
        // single-record attributes contribute 1, others their value
        // count.
        let single = |c: &Column<'_>| c.scenario == RecordScenario::SingleRecord;
        let count = |c: &Column<'_>| if single(c) { 1 } else { c.values.len() };
        let kept =
            numbers.map_or_else(|| columns.iter().map(count).max().unwrap_or(0), <[u32]>::len);

        // The individual's class: the most specific class among the
        // contributing mappings (a record fed by `watch`-level mappings
        // is a Watch even when the query selected `product`).
        let mut record_class = &plan.class;
        for r in &results {
            if ontology.is_subclass_of(r.mapping.class(), record_class) {
                record_class = r.mapping.class();
            }
        }
        minted.clear();
        minted.push_str(&data_ns);
        minted.push_str(&record_class.local_name().to_ascii_lowercase());
        minted.push('/');
        push_sanitized(&mut minted, source);
        minted.push('/');
        let prefix_len = minted.len();
        let record_prefix = Iri::new(&minted).expect("minted IRIs are valid by construction");
        // A record's values go to the list in property order, a
        // property's in column order (the sort is stable).
        projected.clear();
        projected.extend((0..columns.len()).filter(|&k| columns[k].projected));
        projected.sort_by_key(|&k| columns[k].property);

        // Phase 1, in record order: which records become individuals. A
        // source that ran unfiltered is tested here, with nothing
        // allocated for a record the condition rejects.
        let tested = plan.condition.as_ref().filter(|_| numbers.is_none());
        if let Some(tree) = tested {
            fold.fold(tree, columns.len(), |k| columns[k].property);
        }
        for i in 0..kept {
            let mut leaf = |k: usize, c: &ResolvedCondition| {
                columns[k].value(i).is_some_and(|v| condition_matches(c, v))
            };
            if tested.is_some() && !fold.holds(&mut leaf) {
                continue;
            }
            // The projection applies after the condition: condition
            // attributes may be filtered on without being output. (A
            // record with no value at all is no individual either way.)
            if !columns.iter().any(|c| c.projected && c.value(i).is_some()) {
                continue;
            }
            minted.truncate(prefix_len);
            push_number(&mut minted, number(i));
            let iri =
                Iri::new_under(&record_prefix, &minted).expect("a record number is a valid suffix");
            // The source's first survivor enters its id, class and
            // properties in the list, and makes room there for the rest
            // of the source's records, all of them kept.
            if survivors.is_empty() {
                let rest = kept - i;
                let text = |k: usize| match columns[k].scenario {
                    RecordScenario::SingleRecord => {
                        columns[k].values.first().map_or(0, str::len) * rest
                    }
                    RecordScenario::MultiRecord => columns[k].values.text_len(),
                };
                records.individuals.reserve(rest);
                records.values.reserve(rest * projected.len());
                records.text.reserve(projected.iter().map(|&k| text(k)).sum());
                if records.classes.last() != Some(record_class) {
                    records.classes.push(record_class.clone());
                }
                records.sources.push((Arc::from(source), records.classes.len() - 1));
                let tail = records.properties.len().checked_sub(projected.len());
                let tail = tail.map_or(&[][..], |at| &records.properties[at..]);
                if !tail.iter().eq(projected.iter().map(|&k| columns[k].property)) {
                    let properties = projected.iter().map(|&k| columns[k].property.clone());
                    records.properties.extend(properties);
                }
            }
            let properties = records.properties.len() - projected.len();
            for (at, &k) in projected.iter().enumerate() {
                if let Some(v) = columns[k].value(i) {
                    records.text.push_str(v);
                    records.values.push((properties + at, records.text.len()));
                }
            }
            let end = records.values.len();
            records.individuals.push((iri, records.sources.len() - 1, end));
            survivors.push(i);
        }
        if survivors.is_empty() {
            continue;
        }

        // Phase 2, in the graph's order: their blocks, stamped from the
        // closures of the source's templates.
        shape.class = Some(record_class);
        shape.columns.clear();
        shape.columns.extend(columns.iter().map(|c| c.projected.then(|| c.template())));
        if block.shape != shape {
            block.build(&shape, &reasoner, &mut closures);
        }
        objects.clear();
        objects.resize(columns.len(), None);

        // The source's individuals are the last of the list, in the
        // order of `survivors`.
        let first = records.individuals.len() - survivors.len();
        // Ordered before the triples grow: a buffer made after them
        // would sit above them on the heap, and they could not grow in
        // place.
        decimal_order(&mut order, survivors.len(), |at| number(survivors[at]));
        triples.reserve(survivors.len() * block.rows.iter().filter(|r| !r.repeat).count());
        for &at in &order {
            let i = survivors[at];
            for &k in &block.shared {
                // Phase 1 is done with the buffer.
                objects[k] = columns[k].value(i).map(|v| columns[k].object(v, &mut minted));
            }
            let subject = Term::from(records.individuals[first + at].0.clone());
            // The record's term for a row's object, `value` the row's
            // column value, read by its gate.
            let fill = |fill: &Fill, value: Option<&str>, minted: &mut String| match fill {
                Fill::Constant(term) => term.clone(),
                Fill::Subject => subject.clone(),
                Fill::Value(k) => match &objects[*k] {
                    Some(term) => term.clone(),
                    None => {
                        let value = value.expect("a value's row is gated on its column");
                        columns[*k].object(value, minted)
                    }
                },
            };
            for (k, about_reference) in &block.about_references {
                let Some(reference) = &objects[*k] else { continue };
                for (predicate, object) in about_reference {
                    let object = fill(object, None, &mut minted);
                    referenced.push(Triple::new(reference.clone(), predicate.clone(), object));
                }
            }
            let mut emitted = false;
            for (r, row) in block.rows.iter().enumerate() {
                emitted &= row.repeat;
                if emitted {
                    continue;
                }
                let value = match row.gate {
                    Some(k) => match columns[k].value(i) {
                        None => continue,
                        value => value,
                    },
                    None => None,
                };
                emitted = true;
                let object = fill(&row.object, value, &mut minted);
                if block.last == Some(r) {
                    // The rest of the block repeats this row.
                    triples.push(Triple::new(subject, row.predicate.clone(), object));
                    break;
                }
                triples.push(Triple::new(subject.clone(), row.predicate.clone(), object));
            }
        }
        survivors.clear();
    }
    triples.append(&mut referenced);
    (triples, records)
}

/// Fills `order` with the positions `0..len` of increasing record
/// numbers, `number(at)` the one at `at`, in the order of their decimal
/// strings (`1 < 10 < 100 < 2`), which is how the IRIs minted from them
/// sort. The numbers of one digit length are a run already in that
/// order, so the order is the positions as they are for one run, and a
/// merge of at most twenty runs, a head at a time, for more.
fn decimal_order(order: &mut Vec<usize>, len: usize, number: impl Fn(usize) -> usize) {
    order.clear();
    order.reserve(len);
    if len == 0 || digits(number(0)) == digits(number(len - 1)) {
        order.extend(0..len);
        return;
    }
    // Per run: its head's key, its head, its end and its numbers'
    // length; the live runs first.
    let mut runs = [(0u128, 0usize, 0usize, 0u32); 20];
    let mut live = 0;
    let mut start = 0;
    while start < len {
        let digits = digits(number(start));
        let below = 10usize.checked_pow(digits);
        let end = (start..len).find(|&at| below.is_some_and(|b| number(at) >= b)).unwrap_or(len);
        runs[live] = (decimal_order_key(number(start), digits), start, end, digits);
        live += 1;
        start = end;
    }
    while let Some((r, _)) = runs[..live].iter().enumerate().min_by_key(|(_, run)| run.0) {
        let (_, at, end, digits) = runs[r];
        if at + 1 < end {
            runs[r] = (decimal_order_key(number(at + 1), digits), at + 1, end, digits);
        } else {
            live -= 1;
            runs.swap(r, live);
        }
        order.push(at);
    }
}

/// Appends `n` in decimal.
fn push_number(out: &mut String, mut n: usize) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
}

/// A key that orders record numbers as their decimal strings order
/// (`1 < 10 < 100 < 2`), which is how the IRIs minted from them sort:
/// the number `n`, of `digits` digits, left-aligned to the twenty
/// digits of `u64::MAX`, then its length, so that `1` comes before
/// `10`. No number overflows it.
fn decimal_order_key(n: usize, digits: u32) -> u128 {
    const POWERS: [u128; 21] = {
        let mut powers = [1; 21];
        let mut k = 1;
        while k < powers.len() {
            powers[k] = powers[k - 1] * 10;
            k += 1;
        }
        powers
    };
    (n as u128 * POWERS[20 - digits as usize]) << 8 | u128::from(digits)
}

/// How many decimal digits `n` has.
fn digits(n: usize) -> u32 {
    n.checked_ilog10().map_or(1, |d| d + 1)
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

/// The document `s2s_xml::serialize` would write for the instance tree,
/// written straight into the output from the record list: an
/// `instances` root, one element per individual with a child per value,
/// one `error` element per failed extraction, two spaces of indent per
/// level.
fn render_xml(set: &InstanceSet) -> String {
    use s2s_xml::{escape_attribute, escape_text};
    let attribute = |out: &mut String, name: &str, value: &str| {
        out.push(' ');
        out.push_str(name);
        out.push_str("=\"");
        escape_attribute(value, out);
        out.push('"');
    };
    let mut out = String::from(s2s_xml::writer::DECLARATION);
    out.push_str("<instances");
    // Degraded results carry their completeness so consumers can tell
    // a partial answer from a full one (§2.6 error reporting).
    if set.completeness < 1.0 {
        attribute(&mut out, "completeness", &format!("{:.3}", set.completeness));
    }
    // Execution-cost telemetry (how many wire exchanges produced this
    // set), omitted when zero.
    if set.round_trips > 0 {
        attribute(&mut out, "round-trips", &set.round_trips.to_string());
    }
    if set.individuals.is_empty() && set.errors.is_empty() {
        out.push_str("/>\n");
        return out;
    }
    out.push_str(">\n");
    let records = &set.individuals.records;
    for (iri, source, class, values) in records.iter() {
        let class = class.local_name();
        out.push_str("  <");
        out.push_str(class);
        attribute(&mut out, "about", iri.as_str());
        attribute(&mut out, "source", source);
        if values.is_empty() {
            out.push_str("/>\n");
            continue;
        }
        out.push_str(">\n");
        for j in values {
            let (property, value) = records.value(j);
            let property = property.local_name();
            out.push_str("    <");
            out.push_str(property);
            out.push('>');
            escape_text(value, &mut out);
            out.push_str("</");
            out.push_str(property);
            out.push_str(">\n");
        }
        out.push_str("  </");
        out.push_str(class);
        out.push_str(">\n");
    }
    for err in &set.errors {
        out.push_str("  <error");
        attribute(&mut out, "attribute", &err.attribute);
        attribute(&mut out, "source", &err.source);
        out.push('>');
        escape_text(&err.error.to_string(), &mut out);
        out.push_str("</error>\n");
    }
    out.push_str("</instances>\n");
    out
}

/// One line per individual and one per value, read from the record
/// list, then the errors and the answer's annotations.
fn render_text(set: &InstanceSet) -> String {
    let mut out = String::new();
    let records = &set.individuals.records;
    for (iri, source, class, values) in records.iter() {
        out.push_str(&format!("{} [{}] from {source}\n", iri.as_str(), class.local_name()));
        for j in values {
            let (property, value) = records.value(j);
            out.push_str(&format!("  {} = {value}\n", property.local_name()));
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

/// Appends `s` as an IRI path segment: ASCII letters lower-cased,
/// anything outside `[a-z0-9._-]` replaced by `-`, `x` for nothing. A
/// source's records are minted under its id's segment, so the source
/// registry refuses an id whose segment another id already has
/// (`S2sError::IriSegmentCollision`): their records would merge.
pub(crate) fn push_sanitized(out: &mut String, s: &str) {
    if s.is_empty() {
        out.push('x');
    }
    for c in s.chars() {
        if c.is_ascii_alphanumeric() || c == '-' || c == '_' || c == '.' {
            out.push(c.to_ascii_lowercase());
        } else {
            out.push('-');
        }
    }
}

/// What a column's values become as literals, resolved once from the
/// property's range: typed by the range when it is one of the four XSD
/// datatypes besides `xsd:string` a comparison orders and the value is
/// in its space, with the source's text as the space reads it
/// (whitespace collapsed); a plain string otherwise, as the source
/// spelled it.
struct Typing<'a> {
    space: ValueSpace,
    /// The range, when it types values. Borrowed: a column clones no
    /// IRI that its values do not.
    datatype: Option<&'a Iri>,
}

impl<'a> Typing<'a> {
    fn new(range: Option<&'a Iri>) -> Typing<'a> {
        let space = range.map_or(ValueSpace::String, |r| xsd::value_space(r.as_str()));
        Typing { space, datatype: range.filter(|_| space != ValueSpace::String) }
    }

    /// The literal `value` becomes: one block, its text.
    fn literal(&self, value: &str) -> Literal {
        match (self.datatype, self.space.form(value)) {
            (Some(datatype), Some(form)) => Literal::typed(form, datatype.clone()),
            _ => Literal::string(value),
        }
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
            mapping: mapping.into(),
            values: values.iter().collect(),
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

    /// A condition at the depth cap — `NOT (… OR NOT (… OR …))`, which
    /// the fold keeps whole and the evaluator descends a level at a
    /// time — selects what the row definition selects, on a worker
    /// thread's stack, over more than a word's worth of records.
    #[test]
    fn selection_at_the_depth_cap_agrees_with_the_row_definition() {
        use crate::query::MAX_CONDITION_DEPTH;
        let worker = std::thread::Builder::new().stack_size(2 * 1024 * 1024).spawn(|| {
            let o = onto();
            let nested = |levels: usize| {
                let open: String = (0..levels).map(|k| format!("NOT (brand='b{k}' OR ")).collect();
                format!("SELECT product WHERE {open}brand>='b5'{}", ")".repeat(levels))
            };
            let levels = (MAX_CONDITION_DEPTH - 1) / 2;
            assert!(parse(&nested(levels + 1)).is_err(), "one level more is past the cap");
            let p = plan(&parse(&nested(levels)).expect("at the cap"), &o).unwrap();
            let tree = p.condition.as_ref().unwrap();

            let values: Vec<String> = (0..150).map(|i| format!("b{}", i * 2 % 131)).collect();
            let column: Vec<&str> = values.iter().map(String::as_str).collect();
            let rep = report(vec![result(
                &o,
                "thing.product.brand",
                "DB",
                RecordScenario::MultiRecord,
                &column,
            )]);
            let brand = o.property_iri("brand").unwrap();
            let expected: Vec<String> = (0..column.len())
                .filter(|&i| tree.matches(&[(&brand, column[i])]))
                .map(|i| i.to_string())
                .collect();
            assert!(!expected.is_empty() && expected.len() < column.len(), "{expected:?}");
            let set = generate(&o, &p, &rep);
            let selected: Vec<&str> = set.individuals.iter().map(|i| i.iri.local_name()).collect();
            assert_eq!(selected, expected);
        });
        worker.unwrap().join().expect("no stack overflow at the cap");
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
        assert_eq!(lit.lexical(), "59.5");
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
        let set = generate(&o, &p, &rep);
        assert_eq!(set.individuals.len(), 1);
        // type + brand + price + provider, the provider's own type:
        // nothing between extraction and output asks a predicate- or
        // object-led question.
        assert_eq!(set.graph.len(), 5);
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
    fn numeric_ranges_type_only_decimal_lexical_forms() {
        let decimal = xsd::decimal();
        for plain in ["59.5", " 129.99 ", "-3", "+7.", ".5", "0012"] {
            let lit = Typing::new(Some(&decimal)).literal(plain);
            assert_eq!((lit.datatype(), lit.lexical()), (&decimal, plain.trim()));
        }
        // What `str::parse::<f64>` also accepts is not an `xsd:decimal`;
        // like any other text outside the space it stays a plain string.
        for other in ["NaN", "inf", "-infinity", "1e5", "1.5E-3", ".", "+", "", "1.2.3", "cheap"] {
            let lit = Typing::new(Some(&decimal)).literal(other);
            assert_eq!(lit, Literal::string(other), "{other:?}");
        }
        // Every range types the forms of its own space, keeping the
        // source's collapsed text.
        let (double, integer, boolean) = (xsd::double(), xsd::integer(), xsd::boolean());
        for (range, value, typed) in [
            (&double, " 1e5 ", Some("1e5")),
            (&double, "NaN", Some("NaN")),
            (&double, "inf", None),
            (&integer, "+007", Some("+007")),
            (&integer, "1.0", None),
            (&boolean, " 1 ", Some("1")),
        ] {
            let expected = match typed {
                Some(form) => Literal::typed(form, range.clone()),
                None => Literal::string(value),
            };
            assert_eq!(Typing::new(Some(range)).literal(value), expected, "{value:?}");
        }

        let o = onto();
        let p = plan(&parse("SELECT product").unwrap(), &o).unwrap();
        let rep = report(vec![result(
            &o,
            "thing.product.price",
            "DB",
            RecordScenario::MultiRecord,
            &["59.5", "NaN", "1e5"],
        )]);
        let set = generate(&o, &p, &rep);
        let typed = set
            .graph
            .iter()
            .filter_map(|t| t.object().as_literal())
            .filter(|l| l.datatype() == &decimal)
            .map(Literal::lexical)
            .collect::<Vec<_>>();
        assert_eq!(typed, ["59.5"]);
    }

    #[test]
    fn record_numbers_order_as_their_decimal_strings() {
        // Every power of ten a `usize` holds, its neighbours, and the top.
        let boundaries: Vec<usize> = (1..=19)
            .filter_map(|exponent| 10usize.checked_pow(exponent))
            .flat_map(|power| [power - 1, power, power + 1])
            .chain([usize::MAX / 10, usize::MAX - 1, usize::MAX])
            .collect();
        for a in (0..=11_000).chain(boundaries.iter().copied()) {
            let near = [a / 10, a.saturating_mul(10), a.saturating_add(1)];
            for b in boundaries.iter().copied().chain(near) {
                assert_eq!(
                    decimal_order_key(a, digits(a)).cmp(&decimal_order_key(b, digits(b))),
                    a.to_string().cmp(&b.to_string()),
                    "{a} vs {b}"
                );
            }
        }
        // Increasing numbers, dense and sparse, merge into that order.
        let mut increasing: Vec<usize> = (0..=11_000).chain(boundaries).collect();
        increasing.sort_unstable();
        increasing.dedup();
        let sparse: Vec<usize> = increasing.iter().copied().step_by(7).collect();
        for numbers in [increasing, sparse, vec![], vec![5]] {
            let mut merged = vec![7];
            decimal_order(&mut merged, numbers.len(), |at| numbers[at]);
            let mut expected: Vec<usize> = (0..numbers.len()).collect();
            expected.sort_by_key(|&at| numbers[at].to_string());
            assert_eq!(merged, expected);
        }
    }

    /// Sources of 1 000 records, numbered up to three digits, and a
    /// filtered one whose kept records are numbered up to four. The last
    /// unfiltered source lists its columns the other way round, with
    /// other values, so the emitter rebuilds its block for that source
    /// and again for the filtered one.
    fn report_over(o: &Ontology, sources: &[&str]) -> ExtractionReport {
        let column = |path: &str, source: &str, n: usize, value: &dyn Fn(usize) -> String| {
            let values: Vec<String> = (0..n).map(value).collect();
            let values: Vec<&str> = values.iter().map(String::as_str).collect();
            result(o, path, source, RecordScenario::MultiRecord, &values)
        };
        let (price, brand) = ("thing.product.price", "thing.product.brand");
        let mut results = Vec::new();
        for (k, source) in sources.iter().enumerate() {
            if k + 1 < sources.len() {
                results.push(column(price, source, 1_000, &|i| format!("{i}.{k}")));
                results.push(column(brand, source, 1_000, &|i| format!("b{}", i % 7)));
            } else {
                results.push(column(brand, source, 1_000, &|i| format!("b{}", i % 5)));
                results.push(column(price, source, 1_000, &|i| (i % 300).to_string()));
            }
        }
        // Every third of 3 000 records kept by the source's filter.
        let kept: Arc<[u32]> = (0..3_000).step_by(3).collect();
        for path in [price, brand] {
            let mut filtered = column(path, "zip", kept.len(), &|i| format!("{}", i % 300));
            filtered.values.number(Arc::clone(&kept));
            results.push(filtered);
        }
        report(results)
    }

    /// Four sources whose ids sanitize in id order, and a filtered one:
    /// what the graph is built from is already strictly sorted.
    #[test]
    fn triples_are_emitted_in_the_order_the_graph_keeps_them() {
        let o = onto();
        let p = plan(&parse("SELECT product").unwrap(), &o).unwrap();
        let (triples, records) =
            emit_triples(&o, &p, &report_over(&o, &["db", "txt", "web", "xml"]));
        let individuals = records.build();
        assert_eq!((individuals.len(), triples.len()), (5_000, 3 * 5_000));
        // The hint holds: what the graph is built from is already
        // strictly sorted, so it is taken as it is, with no sort.
        let unsorted = triples.windows(2).position(|w| w[0] >= w[1]);
        assert_eq!(unsorted.map(|at| (&triples[at], &triples[at + 1])), None);
        // Every record's price is a decimal, whatever order its source's
        // columns came in: a block not rebuilt for the reversed source
        // would put its brands under `price`.
        let prices = triples.iter().filter(|t| t.predicate().local_name() == "price");
        let decimal =
            |t: &&Triple| t.object().as_literal().is_some_and(|l| l.datatype() == &xsd::decimal());
        assert_eq!(prices.filter(decimal).count(), 5_000);
        // The individuals stay in record order all the same.
        let records = individuals.iter().map(|i| i.iri.local_name());
        let expected = (0..4).flat_map(|_| 0..1_000).chain((0..3_000).step_by(3));
        assert!(records.eq(expected.map(|n| n.to_string())));
    }

    /// The graph sorts only on a wrong hint: never for that answer, with
    /// or without a condition, once for a report whose ids do not
    /// sanitize in id order (`XML` before `web`, but `web/` before
    /// `xml/`). An answer that made every graph sort fails here by a
    /// count.
    #[cfg(debug_assertions)]
    #[test]
    fn only_a_report_out_of_order_makes_the_graph_sort() {
        use s2s_rdf::graph::sorts_on_this_thread;
        let o = onto();
        let sorts = |query: &str, sources: &[&str]| {
            let p = plan(&parse(query).unwrap(), &o).unwrap();
            let report = report_over(&o, sources);
            let before = sorts_on_this_thread();
            let set = generate(&o, &p, &report);
            (set.individuals.len(), sorts_on_this_thread() - before)
        };
        let ordered = ["db", "txt", "web", "xml"];
        assert_eq!(sorts("SELECT product", &ordered), (5_000, 0));
        assert_eq!(sorts("SELECT product WHERE price < 500", &ordered), (3_500, 0));
        assert_eq!(sorts("SELECT product", &["XML", "web"]), (3_000, 1));
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
