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
//! filtered by the query conditions — a column at a time (`select`):
//! the records a condition rejects cost one comparison each.
//!
//! Entailment is per mapping, not per record: what the reasoner derives
//! from a record's fact depends on the fact's property and the kind of
//! its object, never on its values, so the reasoner closes one
//! placeholder fact per record class and per (property, object kind)
//! once a query (`close`), and each record gets a stamped copy.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use s2s_owl::{Ontology, PropertyKind, Reasoner};
use s2s_rdf::turtle::PrefixMap;
use s2s_rdf::vocab::{rdf as rdfv, xsd};
use s2s_rdf::{Graph, Iri, Literal, Term, Triple};

use crate::extract::{AttributeResult, ExtractionFailure, ExtractionReport, Values};
use crate::mapping::RecordScenario;
use crate::query::{condition_matches, ConditionTree, QueryPlan};

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
    values: &'a Values,
    scenario: RecordScenario,
    /// Whether the plan's projection (if any) outputs the property.
    projected: bool,
    /// The first declared range of the property, if it is declared.
    range: Option<&'a Iri>,
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
            return Term::from(typed_literal(self.range, value));
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
/// from, entailed for every record (by its class or its provenance,
/// `gate: None`) or by a column's value (`gate: Some(column)`, emitted
/// only for the records that have one).
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
    /// The source's id (provenance).
    Source,
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

/// What the templates of a source's record class, its provenance and its
/// projected columns make of each of its records. It depends on nothing
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
}

impl<'a> Block<'a> {
    /// Rebuilds the block for `shape` from its templates' closures,
    /// closing those not closed yet.
    fn build(
        &mut self,
        shape: &Shape<'a>,
        provenance: Option<Template<'a>>,
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
        let provenance = provenance.map(|template| (template, Fill::Source, None));
        let columns = shape.columns.iter().enumerate();
        let values = columns.filter_map(|(k, t)| Some(((*t)?, Fill::Value(k), Some(k))));
        for (template, value, gate) in class.into_iter().chain(provenance).chain(values) {
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
    }
}

/// Calls `f` with each record set in `bits`, in ascending order.
fn for_each_set(bits: &[u64], mut f: impl FnMut(usize)) {
    for (w, word) in bits.iter().enumerate() {
        let mut pending = *word;
        while pending != 0 {
            f(w * 64 + pending.trailing_zeros() as usize);
            pending &= pending - 1;
        }
    }
}

/// Clears from `bits` the records `keep` does not hold for, asking it
/// about the set ones only, in ascending order.
fn retain(bits: &mut [u64], mut keep: impl FnMut(usize) -> bool) {
    for (w, word) in bits.iter_mut().enumerate() {
        let mut pending = *word;
        while pending != 0 {
            if !keep(w * 64 + pending.trailing_zeros() as usize) {
                *word &= !(pending & pending.wrapping_neg());
            }
            pending &= pending - 1;
        }
    }
}

/// The buffers [`select`] borrows on the deepest path of `tree`: one for
/// each `AND` wanted false and each `OR` wanted true.
fn complements(tree: &ConditionTree, want: bool) -> usize {
    match tree {
        ConditionTree::Leaf(_) => 0,
        ConditionTree::Not(e) => complements(e, !want),
        ConditionTree::And(a, b) | ConditionTree::Or(a, b) => {
            let both = matches!(tree, ConditionTree::And(..));
            usize::from(want != both) + complements(a, both).max(complements(b, both))
        }
    }
}

/// Narrows the selection `bits` — one bit per record of a source — to
/// the records for which `tree` evaluates to `want`:
/// [`ConditionTree::matches`], which stays the definition, run a column
/// at a time over `columns` sorted by property.
///
/// A leaf finds the columns carrying its property once (a run of the
/// sorted slice: any of them may satisfy it, none fails it), tests a
/// single-record value once for every record, and otherwise makes one
/// [`condition_matches`] call per record still selected. `NOT` flips
/// `want`. `AND` and `OR` are one narrowing by De Morgan — to the
/// records where both operands are true, respectively false — so the
/// right operand only sees the records the left one left undecided, as
/// the row walk's short-circuit had it. When the other half is wanted
/// the narrowing runs on a copy, lent by `spare` ([`complements`]), and
/// is then taken out of `bits`.
fn select(
    tree: &ConditionTree,
    columns: &[Column<'_>],
    bits: &mut [u64],
    want: bool,
    spare: &mut [Vec<u64>],
) {
    match tree {
        ConditionTree::Leaf(leaf) => {
            let run = &columns[columns.partition_point(|c| *c.property < leaf.property)..];
            let carrying = &run[..run.iter().take_while(|c| *c.property == leaf.property).count()];
            let holds = |value: Option<&str>| value.is_some_and(|v| condition_matches(leaf, v));
            let single = |c: &&Column<'_>| c.scenario == RecordScenario::SingleRecord;
            if carrying.iter().filter(single).any(|c| holds(c.values.first())) {
                if !want {
                    bits.fill(0);
                }
                return;
            }
            retain(bits, |i| {
                carrying.iter().filter(|c| !single(c)).any(|c| holds(c.values.get(i))) == want
            });
        }
        ConditionTree::Not(e) => select(e, columns, bits, !want, spare),
        ConditionTree::And(a, b) | ConditionTree::Or(a, b) => {
            // Where an `AND` is true both operands are; where an `OR` is
            // false both are.
            let both = matches!(tree, ConditionTree::And(..));
            if want == both {
                select(a, columns, bits, both, spare);
                select(b, columns, bits, both, spare);
            } else {
                let (decided, spare) =
                    spare.split_first_mut().expect("a spare buffer per complement");
                decided.clear();
                decided.extend_from_slice(bits);
                select(a, columns, decided, both, spare);
                select(b, columns, decided, both, spare);
                for (word, decided) in bits.iter_mut().zip(decided) {
                    *word &= !*decided;
                }
            }
        }
    }
}

/// Like [`generate`], with options.
pub fn generate_with_options(
    ontology: &Ontology,
    plan: &QueryPlan,
    report: &ExtractionReport,
    options: GenerateOptions,
) -> InstanceSet {
    let (triples, individuals) = emit_triples(ontology, plan, report, options);
    // Entailments included: one tree build.
    let graph: Graph = triples.into_iter().collect();

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

/// The individuals the report yields under the plan, in record order,
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
/// their own — after everything else. The order is a hint for the sort
/// that follows, never something the answer depends on: source ids that
/// sanitize to one prefix (which the source registry refuses, but a
/// report built by hand can hold), or to prefixes out of id order,
/// merely leave that sort more to do.
fn emit_triples(
    ontology: &Ontology,
    plan: &QueryPlan,
    report: &ExtractionReport,
    options: GenerateOptions,
) -> (Vec<Triple>, Vec<Individual>) {
    let data_ns = data_namespace(ontology);
    let reasoner = Reasoner::new(ontology);
    let provenance = options.provenance.then(provenance_property);
    let mut closures: BTreeMap<Template<'_>, Entailed> = BTreeMap::new();
    let mut triples: Vec<Triple> = Vec::new();
    let mut referenced: Vec<Triple> = Vec::new();
    let mut individuals = Vec::new();
    let provenance_template = provenance.as_ref().map(|p| Template::Value(p, ObjectKind::Literal));
    // Reused from source to source: the text being minted, the records
    // of the source that became individuals, the last block and the
    // shape of the next, the values that fill more than one row, and
    // the buffers of the condition's selection.
    let mut minted = String::new();
    let mut survivors: Vec<(usize, Iri)> = Vec::new();
    let mut block = Block::default();
    let mut shape = Shape::default();
    let mut objects: Vec<Option<Term>> = Vec::new();
    let mut selection: Vec<u64> = Vec::new();
    let mut spare: Vec<Vec<u64>> =
        vec![Vec::new(); plan.condition.as_ref().map_or(0, |tree| complements(tree, true))];

    // Group results by source.
    let mut by_source: BTreeMap<&str, Vec<&AttributeResult>> = BTreeMap::new();
    for r in &report.results {
        by_source.entry(r.mapping.source().as_str()).or_default().push(r);
    }

    for (source, results) in by_source {
        let mut columns: Vec<Column<'_>> = results
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
                        Iri::new(format!("{data_ns}{class}/"))
                            .expect("valid wherever the record prefix is")
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
        minted.clear();
        minted.push_str(&data_ns);
        minted.push_str(&record_class.local_name().to_ascii_lowercase());
        minted.push('/');
        push_sanitized(&mut minted, source);
        minted.push('/');
        let prefix_len = minted.len();
        let record_prefix = Iri::new(&minted).expect("minted IRIs are valid by construction");

        // Phase 1, in record order: which records become individuals.
        // A condition selects them by column, and finds a leaf's columns
        // as a run of the sorted ones (a stable sort: the columns of one
        // property keep their order, an individual's values with them).
        if plan.condition.is_some() {
            columns.sort_by_key(|c| c.property);
        }
        let mut individual = |i: usize| {
            // The projection applies after the condition: condition
            // attributes may be filtered on without being output. (A
            // record with no value at all is no individual either way.)
            if !columns.iter().any(|c| c.projected && c.value(i).is_some()) {
                return;
            }
            minted.truncate(prefix_len);
            write!(minted, "{i}").expect("writing to a String cannot fail");
            let iri =
                Iri::new_under(&record_prefix, &minted).expect("a record number is a valid suffix");
            let mut values: BTreeMap<Iri, Vec<String>> = BTreeMap::new();
            for c in columns.iter().filter(|c| c.projected) {
                if let Some(v) = c.value(i) {
                    values.entry(c.property.clone()).or_default().push(v.to_string());
                }
            }
            survivors.push((i, iri.clone()));
            individuals.push(Individual {
                iri,
                class: record_class.clone(),
                source: source.to_string(),
                values,
            });
        };
        match &plan.condition {
            Some(tree) => {
                // Every record, narrowed by the tree: nothing is
                // allocated for a record it rejects.
                selection.clear();
                selection.resize(records.div_ceil(64), u64::MAX);
                if let Some(last) = selection.last_mut().filter(|_| records % 64 != 0) {
                    *last = (1 << (records % 64)) - 1;
                }
                select(tree, &columns, &mut selection, true, &mut spare);
                for_each_set(&selection, &mut individual);
            }
            None => (0..records).for_each(&mut individual),
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
            block.build(&shape, provenance_template, &reasoner, &mut closures);
        }
        let source_literal = provenance.is_some().then(|| Term::from(Literal::string(source)));
        objects.clear();
        objects.resize(columns.len(), None);

        survivors.sort_by_cached_key(|(i, _)| decimal_order_key(*i));
        triples.reserve(survivors.len() * block.rows.iter().filter(|r| !r.repeat).count());
        for (i, iri) in survivors.drain(..) {
            for &k in &block.shared {
                // Phase 1 is done with the buffer.
                objects[k] = columns[k].value(i).map(|v| columns[k].object(v, &mut minted));
            }
            let subject = Term::from(iri);
            // The record's term for a row's object.
            let mut fill = |fill: &Fill| match fill {
                Fill::Constant(term) => term.clone(),
                Fill::Subject => subject.clone(),
                Fill::Source => source_literal.clone().expect("provenance is on"),
                Fill::Value(k) => match &objects[*k] {
                    Some(term) => term.clone(),
                    None => {
                        let value = columns[*k].value(i).expect("the row's gate holds");
                        columns[*k].object(value, &mut minted)
                    }
                },
            };
            let mut emitted = false;
            for row in &block.rows {
                emitted &= row.repeat;
                if emitted || row.gate.is_some_and(|k| columns[k].value(i).is_none()) {
                    continue;
                }
                emitted = true;
                let object = fill(&row.object);
                triples.push(Triple::new(subject.clone(), row.predicate.clone(), object));
            }
            for (k, about_reference) in &block.about_references {
                let Some(reference) = &objects[*k] else { continue };
                for (predicate, object) in about_reference {
                    let object = fill(object);
                    referenced.push(Triple::new(reference.clone(), predicate.clone(), object));
                }
            }
        }
    }
    triples.append(&mut referenced);
    (triples, individuals)
}

/// A key that orders record numbers as their decimal strings order
/// (`1 < 10 < 100 < 2`), which is how the IRIs minted from them sort:
/// the number left-aligned to the twenty digits of `u64::MAX`, then its
/// length, so that `1` comes before `10`. No number overflows it.
fn decimal_order_key(n: usize) -> u128 {
    let digits = n.checked_ilog10().map_or(1, |d| d + 1);
    (n as u128 * 10u128.pow(20 - digits)) << 8 | u128::from(digits)
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

fn typed_literal(range: Option<&Iri>, value: &str) -> Literal {
    match range.map(Iri::as_str) {
        Some(xsd::INTEGER) => value
            .trim()
            .parse::<i64>()
            .map(Literal::integer)
            .unwrap_or_else(|_| Literal::string(value)),
        // The literal is emitted as an `xsd:decimal`, so the source's
        // text must be in that type's lexical space: `inf`, `NaN` or
        // `1e5` parse as floats and are not.
        Some(xsd::DECIMAL) | Some(xsd::DOUBLE) if is_decimal_lexical(value.trim()) => {
            Literal::typed(value.trim(), xsd::decimal())
        }
        Some(xsd::BOOLEAN) => match value.trim() {
            "true" | "1" => Literal::boolean(true),
            "false" | "0" => Literal::boolean(false),
            _ => Literal::string(value),
        },
        _ => Literal::string(value),
    }
}

/// Whether `s` is in the lexical space of `xsd:decimal`:
/// `[+-]?(\d+(\.\d*)?|\.\d+)`.
fn is_decimal_lexical(s: &str) -> bool {
    let unsigned = s.strip_prefix(['+', '-']).unwrap_or(s);
    let (whole, fraction) = unsigned.split_once('.').unwrap_or((unsigned, ""));
    !(whole.is_empty() && fraction.is_empty())
        && whole.bytes().chain(fraction.bytes()).all(|b| b.is_ascii_digit())
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

    /// A condition at the depth cap — `NOT (… OR NOT (… OR …))`, so that
    /// every level flips the wanted half and every level but the first
    /// borrows a buffer — selects what the row definition selects, on a
    /// worker thread's stack and across a word of the selection.
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
            assert_eq!(complements(tree, true), levels - 1);

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
    fn numeric_ranges_type_only_decimal_lexical_forms() {
        let decimal = xsd::decimal();
        for plain in ["59.5", " 129.99 ", "-3", "+7.", ".5", "0012"] {
            let lit = typed_literal(Some(&decimal), plain);
            assert_eq!((lit.datatype(), lit.lexical()), (&decimal, plain.trim()));
        }
        // What `str::parse::<f64>` also accepts is not an `xsd:decimal`;
        // like any other non-numeric text it stays a plain string.
        for other in ["NaN", "inf", "-infinity", "1e5", "1.5E-3", ".", "+", "", "1.2.3", "cheap"] {
            assert_eq!(typed_literal(Some(&decimal), other), Literal::string(other), "{other:?}");
            let double = Iri::new(xsd::DOUBLE).unwrap();
            assert_eq!(typed_literal(Some(&double), other), Literal::string(other), "{other:?}");
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
                    decimal_order_key(a).cmp(&decimal_order_key(b)),
                    a.to_string().cmp(&b.to_string()),
                    "{a} vs {b}"
                );
            }
        }
        let mut numbers: Vec<usize> = (0..=11_000).collect();
        numbers.sort_by_cached_key(|n| decimal_order_key(*n));
        assert!(numbers.windows(2).all(|w| w[0].to_string() < w[1].to_string()));
    }

    #[test]
    fn triples_are_emitted_in_the_order_the_graph_keeps_them() {
        let o = onto();
        let p = plan(&parse("SELECT product").unwrap(), &o).unwrap();
        let column = |path: &str, source: &str, value: &dyn Fn(usize) -> String| {
            let values: Vec<String> = (0..1_200).map(value).collect();
            let values: Vec<&str> = values.iter().map(String::as_str).collect();
            result(&o, path, source, RecordScenario::MultiRecord, &values)
        };
        let rep = report(vec![
            column("thing.product.price", "db", &|i| format!("{i}.5")),
            column("thing.product.brand", "db", &|i| format!("brand{}", i % 7)),
            column("thing.product.brand", "xml", &|i| format!("brand{}", i % 5)),
            column("thing.product.price", "xml", &|i| format!("{}", i % 300)),
        ]);
        let (triples, individuals) =
            emit_triples(&o, &p, &rep, GenerateOptions { provenance: true });
        assert_eq!((individuals.len(), triples.len()), (2_400, 4 * 2_400));
        // The hint holds: what the reasoner is handed is already
        // strictly sorted, so its sort and the tree build are linear.
        let unsorted = triples.windows(2).position(|w| w[0] >= w[1]);
        assert_eq!(unsorted.map(|at| (&triples[at], &triples[at + 1])), None);
        // The individuals stay in record order all the same.
        let records: Vec<&str> = individuals[..1_200].iter().map(|i| i.iri.local_name()).collect();
        let expected: Vec<String> = (0..1_200).map(|i| i.to_string()).collect();
        assert_eq!(records, expected);
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
