//! Structural reasoner over an [`Ontology`] and instance graphs.
//!
//! The reproduction bands note the Rust ecosystem has "ontology reasoning
//! missing" — so this module supplies the reasoning the S2S middleware
//! needs, implemented from scratch:
//!
//! * **subsumption closure** — materialize all transitive
//!   `rdfs:subClassOf` facts,
//! * **type inference** — `rdfs:domain`/`rdfs:range` based typing of
//!   individuals plus supertype propagation,
//! * **realization** — most-specific classes of each individual,
//! * **consistency checking** — disjointness, functional-property,
//!   cardinality, and datatype-range violations over an instance graph.

use std::collections::{BTreeMap, BTreeSet};

use s2s_rdf::vocab::{rdf, xsd};
use s2s_rdf::{Graph, Iri, Literal, Term, Triple};

use crate::model::{Ontology, PropertyKind, Restriction};

/// A consistency problem found in an instance graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConsistencyIssue {
    /// An individual is typed by two disjoint classes.
    DisjointViolation {
        /// The individual.
        individual: Term,
        /// First class.
        class_a: Iri,
        /// Second (disjoint) class.
        class_b: Iri,
    },
    /// A functional property has more than one value.
    FunctionalViolation {
        /// The individual.
        individual: Term,
        /// The functional property.
        property: Iri,
        /// Number of distinct values found.
        count: usize,
    },
    /// A cardinality restriction is violated.
    CardinalityViolation {
        /// The individual.
        individual: Term,
        /// The restricted property.
        property: Iri,
        /// The class carrying the restriction.
        on_class: Iri,
        /// Number of values found.
        found: usize,
        /// Human-readable bound description (e.g. `min 1`, `max 1`).
        bound: String,
    },
    /// A datatype-property value does not conform to the declared range.
    RangeViolation {
        /// The individual.
        individual: Term,
        /// The property.
        property: Iri,
        /// The offending value.
        value: Literal,
        /// The expected datatype.
        expected: Iri,
    },
}

impl std::fmt::Display for ConsistencyIssue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConsistencyIssue::DisjointViolation { individual, class_a, class_b } => write!(
                f,
                "{individual} is typed by disjoint classes {} and {}",
                class_a.local_name(),
                class_b.local_name()
            ),
            ConsistencyIssue::FunctionalViolation { individual, property, count } => write!(
                f,
                "{individual} has {count} values for functional property {}",
                property.local_name()
            ),
            ConsistencyIssue::CardinalityViolation {
                individual,
                property,
                on_class,
                found,
                bound,
            } => write!(
                f,
                "{individual} violates {bound} on {} (class {}): found {found}",
                property.local_name(),
                on_class.local_name()
            ),
            ConsistencyIssue::RangeViolation { individual, property, value, expected } => write!(
                f,
                "{individual}.{} = {value} does not conform to {}",
                property.local_name(),
                expected.local_name()
            ),
        }
    }
}

/// A reasoner bound to one ontology.
///
/// Reads the ontology's subsumption closure (computed once per
/// ontology, by the first reasoner built over it); all query methods are
/// then cheap lookups.
///
/// # Examples
///
/// ```
/// use s2s_owl::{Ontology, Reasoner};
///
/// # fn main() -> Result<(), s2s_owl::OwlError> {
/// let onto = Ontology::builder("http://example.org/schema#")
///     .class("Product", None)?
///     .class("Watch", Some("Product"))?
///     .build()?;
/// let reasoner = Reasoner::new(&onto);
/// let watch = onto.class_iri("Watch")?;
/// let product = onto.class_iri("Product")?;
/// assert!(reasoner.subsumes(&product, &watch));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Reasoner<'o> {
    ontology: &'o Ontology,
    /// class → all transitive superclasses (excluding itself).
    closure: &'o BTreeMap<Iri, BTreeSet<Iri>>,
}

impl<'o> Reasoner<'o> {
    /// Builds the reasoner; the first one over an ontology computes its
    /// subsumption closure.
    pub fn new(ontology: &'o Ontology) -> Self {
        Reasoner { ontology, closure: ontology.subsumption_closure() }
    }

    /// The ontology this reasoner is bound to.
    pub fn ontology(&self) -> &Ontology {
        self.ontology
    }

    /// Whether `sup` subsumes `sub` (reflexive).
    pub fn subsumes(&self, sup: &Iri, sub: &Iri) -> bool {
        sup == sub || self.closure.get(sub).is_some_and(|s| s.contains(sup))
    }

    /// All superclasses of `class` from the precomputed closure.
    pub fn superclasses(&self, class: &Iri) -> impl Iterator<Item = &Iri> {
        self.closure.get(class).into_iter().flatten()
    }

    /// Materializes inferred triples into `graph`:
    ///
    /// 1. domain typing: `(s, p, o)` with `p` having domain `C` adds
    ///    `(s, rdf:type, C)`;
    /// 2. range typing for object properties: adds `(o, rdf:type, R)`;
    /// 3. supertype propagation: `(s, rdf:type, C)` and `C ⊑ D` adds
    ///    `(s, rdf:type, D)` (equivalent classes are in the closure, so
    ///    their members are cross-typed too);
    /// 4. subproperty and inverse-property propagation.
    ///
    /// Returns the number of triples added. The graph is taken apart,
    /// closed by [`materialized`](Reasoner::materialized) and rebuilt; a
    /// producer that has its triples in a vector should call that
    /// directly and build the graph once.
    pub fn materialize(&self, graph: &mut Graph) -> usize {
        let before = graph.len();
        *graph = self.materialized(std::mem::take(graph).into_iter().collect());
        graph.len() - before
    }

    /// The graph holding `triples` (in any order, repeats allowed) and
    /// everything the rules of [`materialize`](Reasoner::materialize)
    /// infer from them.
    ///
    /// Evaluation is semi-naive over sorted vectors. Every rule has a
    /// single triple as its premise, so a triple's consequences depend
    /// on nothing else in the graph: the first round examines every
    /// triple, each later round only the triples the previous round
    /// added (an inverse- or sub-property triple can enable further
    /// domain/range typings; an added type triple cannot — its class's
    /// closure came with it), and the fixpoint is reached when a round
    /// adds nothing — the same least fixpoint as re-scanning the whole
    /// graph until nothing changes. A round sorts its candidates and
    /// merges them into what is known in one lockstep pass that also
    /// tells which of them were new, so no candidate costs a tree
    /// descent and the tree is built once, from sorted input, at the end.
    pub fn materialized(&self, triples: Vec<Triple>) -> Graph {
        let mut known = triples;
        known.sort();
        known.dedup();
        let rdf_type = rdf::type_();
        let mut candidates = self.consequences(known.iter());
        while !candidates.is_empty() {
            candidates.sort();
            candidates.dedup();
            let added = absorb(&mut known, candidates);
            // A derived type triple has nothing left to say: the rule
            // that proposed it proposed the class's whole (transitive)
            // closure in the same round.
            let premises = added.iter().map(|&at| &known[at]);
            candidates = self.consequences(premises.filter(|t| t.predicate() != &rdf_type));
        }
        known.into_iter().collect()
    }

    /// The direct consequences of each of `triples` under the rules of
    /// [`materialize`](Reasoner::materialize), one rule application
    /// deep. May repeat triples and may include ones already in the
    /// graph; type candidates repeated within one node's run of
    /// consecutive triples (a record's properties mostly share a
    /// domain) are dropped here, before they are sorted.
    fn consequences<'a>(&'a self, triples: impl Iterator<Item = &'a Triple>) -> Vec<Triple> {
        let rdf_type = rdf::type_();
        let mut out = Vec::new();
        let mut subject_types = TypeRun::default();
        let mut object_types = TypeRun::default();
        for t in triples {
            if t.predicate() == &rdf_type {
                if let Some(class) = t.object().as_iri() {
                    for sup in self.superclasses(class) {
                        subject_types.emit(t.subject(), sup, &rdf_type, &mut out);
                    }
                }
                continue;
            }
            let Some(prop) = self.ontology.property(t.predicate()) else { continue };
            for domain in prop.domains() {
                for class in std::iter::once(domain).chain(self.superclasses(domain)) {
                    subject_types.emit(t.subject(), class, &rdf_type, &mut out);
                }
            }
            if prop.kind() == PropertyKind::Object && t.object().is_subject() {
                for range in prop.ranges().filter(|r| self.ontology.class(r).is_some()) {
                    for class in std::iter::once(range).chain(self.superclasses(range)) {
                        object_types.emit(t.object(), class, &rdf_type, &mut out);
                    }
                }
            }
            // Subproperty propagation: p ⊑ q ⇒ (s, q, o).
            for parent in prop.parents() {
                out.push(Triple::new(t.subject().clone(), parent.clone(), t.object().clone()));
            }
            // Inverse propagation: p ≡ q⁻ ⇒ (o, q, s).
            if let Some(inverse) = prop.inverse_of() {
                out.extend(Triple::try_new(
                    t.object().clone(),
                    inverse.clone(),
                    t.subject().clone(),
                ));
            }
        }
        out
    }

    /// The most specific classes of `individual` in `graph` (asserted or
    /// materialized types with no asserted subtype also present).
    pub fn realize(&self, graph: &Graph, individual: &Term) -> Vec<Iri> {
        let rdf_type = rdf::type_();
        let types: BTreeSet<Iri> =
            graph.objects(individual, &rdf_type).filter_map(|o| o.as_iri().cloned()).collect();
        types
            .iter()
            .filter(|c| {
                // keep c iff no other asserted type is a strict subclass of c
                !types.iter().any(|d| d != *c && self.subsumes(c, d))
            })
            .cloned()
            .collect()
    }

    /// Checks `graph` for consistency issues against the ontology.
    ///
    /// Assumes types have been [`materialize`](Reasoner::materialize)d;
    /// call that first for complete results.
    pub fn check_consistency(&self, graph: &Graph) -> Vec<ConsistencyIssue> {
        let rdf_type = rdf::type_();
        let mut issues = Vec::new();

        // Collect (individual → asserted classes).
        let mut types: BTreeMap<Term, BTreeSet<Iri>> = BTreeMap::new();
        for t in graph.match_pattern(None, Some(&rdf_type), None) {
            if let Some(c) = t.object().as_iri() {
                types.entry(t.subject().clone()).or_default().insert(c.clone());
            }
        }

        // Disjointness.
        for (individual, classes) in &types {
            for a in classes {
                if let Some(def) = self.ontology.class(a) {
                    for b in def.disjoint_with() {
                        if classes.contains(b) && a < b {
                            issues.push(ConsistencyIssue::DisjointViolation {
                                individual: individual.clone(),
                                class_a: a.clone(),
                                class_b: b.clone(),
                            });
                        }
                    }
                }
            }
        }

        // Functional properties + datatype ranges.
        for prop in self.ontology.properties() {
            let subjects: BTreeSet<Term> = graph
                .match_pattern(None, Some(prop.iri()), None)
                .map(|t| t.subject().clone())
                .collect();
            for s in subjects {
                let values: Vec<Term> = graph.objects(&s, prop.iri()).collect();
                if prop.functional() && values.len() > 1 {
                    issues.push(ConsistencyIssue::FunctionalViolation {
                        individual: s.clone(),
                        property: prop.iri().clone(),
                        count: values.len(),
                    });
                }
                if prop.kind() == PropertyKind::Datatype {
                    for range in prop.ranges() {
                        for v in &values {
                            if let Some(lit) = v.as_literal() {
                                if !literal_conforms(lit, range) {
                                    issues.push(ConsistencyIssue::RangeViolation {
                                        individual: s.clone(),
                                        property: prop.iri().clone(),
                                        value: lit.clone(),
                                        expected: range.clone(),
                                    });
                                }
                            }
                        }
                    }
                }
            }
        }

        // Cardinality restrictions: apply to every individual typed by the
        // restricted class.
        for class in self.ontology.classes() {
            if class.restrictions().is_empty() {
                continue;
            }
            let class_term = Term::from(class.iri().clone());
            let members: Vec<Term> = graph.subjects(&rdf_type, &class_term).collect();
            for r in class.restrictions() {
                for m in &members {
                    let count = graph.objects(m, r.property()).count();
                    match r {
                        Restriction::MinCardinality { min, .. } if (count as u32) < *min => {
                            issues.push(ConsistencyIssue::CardinalityViolation {
                                individual: m.clone(),
                                property: r.property().clone(),
                                on_class: class.iri().clone(),
                                found: count,
                                bound: format!("min {min}"),
                            });
                        }
                        Restriction::MaxCardinality { max, .. } if (count as u32) > *max => {
                            issues.push(ConsistencyIssue::CardinalityViolation {
                                individual: m.clone(),
                                property: r.property().clone(),
                                on_class: class.iri().clone(),
                                found: count,
                                bound: format!("max {max}"),
                            });
                        }
                        _ => {}
                    }
                }
            }
        }

        issues
    }
}

/// The classes already proposed as types of one node while consecutive
/// triples keep naming that node; a different node starts a new run.
#[derive(Default)]
struct TypeRun<'a> {
    node: Option<&'a Term>,
    classes: Vec<&'a Iri>,
}

impl<'a> TypeRun<'a> {
    /// Pushes `(node, rdf:type, class)` unless this run already did.
    fn emit(&mut self, node: &'a Term, class: &'a Iri, rdf_type: &Iri, out: &mut Vec<Triple>) {
        if self.node != Some(node) {
            self.node = Some(node);
            self.classes.clear();
        }
        if !self.classes.contains(&class) {
            self.classes.push(class);
            out.push(Triple::new(node.clone(), rdf_type.clone(), class.clone()));
        }
    }
}

/// Merges `candidates` into `known` — both sorted and free of repeats —
/// and returns where in the merged `known` the candidates that were not
/// already there now sit.
fn absorb(known: &mut Vec<Triple>, candidates: Vec<Triple>) -> Vec<usize> {
    let merged = Vec::with_capacity(known.len() + candidates.len());
    let mut old = std::mem::replace(known, merged).into_iter().peekable();
    let mut added = Vec::new();
    for candidate in candidates {
        while let Some(smaller) = old.next_if(|t| *t < candidate) {
            known.push(smaller);
        }
        if old.peek() != Some(&candidate) {
            added.push(known.len());
            known.push(candidate);
        }
    }
    known.extend(old);
    added
}

/// Whether a literal's lexical form conforms to a datatype IRI: a date
/// spells `YYYY-MM-DD`, an `anyURI` is an IRI, and any other form is in
/// the datatype's value space ([`xsd::value_space`]) — every form, for a
/// datatype that compares as `xsd:string` (open-world).
pub fn literal_conforms(lit: &Literal, datatype: &Iri) -> bool {
    match datatype.as_str() {
        xsd::DATE => {
            let s = lit.lexical();
            let b: Vec<&str> = s.split('-').collect();
            b.len() == 3
                && b[0].len() == 4
                && b.iter().all(|p| p.chars().all(|c| c.is_ascii_digit()))
        }
        xsd::ANY_URI => Iri::new(lit.lexical()).is_ok(),
        other => xsd::value_space(other).contains(lit.lexical()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Ontology;
    use proptest::prelude::*;

    fn onto() -> Ontology {
        Ontology::builder("http://example.org/schema#")
            .class("Product", None)
            .unwrap()
            .class("Watch", Some("Product"))
            .unwrap()
            .class("Provider", None)
            .unwrap()
            .disjoint("Product", "Provider")
            .unwrap()
            .datatype_property("brand", "Product", xsd::STRING)
            .unwrap()
            .datatype_property("price", "Product", xsd::DECIMAL)
            .unwrap()
            .object_property("provider", "Product", "Provider")
            .unwrap()
            .functional("price")
            .unwrap()
            .min_cardinality("Watch", "brand", 1)
            .unwrap()
            .build()
            .unwrap()
    }

    #[test]
    fn closure_is_computed_once_per_ontology() {
        let o = onto();
        let cold = o.clone();
        let (first, second) = (Reasoner::new(&o), Reasoner::new(&o));
        assert!(std::ptr::eq(first.closure, second.closure));
        // Derived data: an ontology equals its copy made before the
        // closure existed, and that copy computes the same closure.
        assert_eq!(o, cold);
        assert_eq!(Reasoner::new(&cold).closure, first.closure);
    }

    fn iri(s: &str) -> Iri {
        Iri::new(s).unwrap()
    }

    fn ex(name: &str) -> Iri {
        iri(&format!("http://example.org/schema#{name}"))
    }

    fn ind(name: &str) -> Term {
        Term::from(iri(&format!("http://example.org/data/{name}")))
    }

    /// The pre-semi-naive materializer, kept as the oracle: apply every
    /// rule to every triple of the graph, insert, and repeat until a
    /// whole pass adds nothing.
    fn materialize_naive(r: &Reasoner<'_>, graph: &mut Graph) -> usize {
        let rdf_type = rdf::type_();
        let mut total = 0;
        loop {
            let mut new_triples: Vec<Triple> = Vec::new();
            for t in graph.iter() {
                let mut typed = |node: &Term, class: &Iri| {
                    new_triples.push(Triple::new(node.clone(), rdf_type.clone(), class.clone()));
                    for sup in r.superclasses(class) {
                        new_triples.push(Triple::new(node.clone(), rdf_type.clone(), sup.clone()));
                    }
                };
                if t.predicate() == &rdf_type {
                    if let Some(class) = t.object().as_iri() {
                        typed(t.subject(), class);
                    }
                    continue;
                }
                let Some(prop) = r.ontology.property(t.predicate()) else { continue };
                for domain in prop.domains() {
                    typed(t.subject(), domain);
                }
                if prop.kind() == PropertyKind::Object && t.object().is_subject() {
                    for range in prop.ranges() {
                        if r.ontology.class(range).is_some() {
                            typed(t.object(), range);
                        }
                    }
                }
                for parent in prop.parents() {
                    new_triples.push(Triple::new(
                        t.subject().clone(),
                        parent.clone(),
                        t.object().clone(),
                    ));
                }
                if let Some(inverse) = prop.inverse_of() {
                    new_triples.extend(Triple::try_new(
                        t.object().clone(),
                        inverse.clone(),
                        t.subject().clone(),
                    ));
                }
            }
            let added = new_triples.into_iter().filter(|t| graph.insert(t.clone())).count();
            total += added;
            if added == 0 {
                return total;
            }
        }
    }

    /// An ontology exercising every materialization rule: a class tree
    /// with equivalences, object properties (domain + class range),
    /// datatype properties, sub-property links (chains and cycles
    /// across both kinds) and inverse pairs.
    fn arb_rule_ontology() -> impl Strategy<Value = Ontology> {
        use proptest::collection::vec;
        let classes =
            (vec(proptest::option::of(0usize..8), 2..8), vec((0usize..8, 0usize..8), 0..3));
        let properties = (vec((0usize..8, 0usize..8), 1..6), vec(0usize..8, 1..4));
        let links = (vec((0usize..9, 0usize..9), 0..6), vec((0usize..5, 0usize..5), 0..3));
        (classes, properties, links).prop_map(
            |((parents, equivalents), (object_props, datatype_props), (subprops, inverses))| {
                let n = parents.len();
                let class = |i: usize| format!("K{}", i % n);
                let mut b = Ontology::builder("http://prop.example/#");
                for (i, parent) in parents.iter().enumerate() {
                    let parent = parent.filter(|&p| p < i).map(|p| format!("K{p}"));
                    b = b.class(&format!("K{i}"), parent.as_deref()).unwrap();
                }
                for (a, c) in equivalents {
                    b = b.equivalent(&class(a), &class(c)).unwrap();
                }
                let mut names = Vec::new();
                for (i, (domain, range)) in object_props.iter().enumerate() {
                    names.push(format!("o{i}"));
                    b = b.object_property(&names[i], &class(*domain), &class(*range)).unwrap();
                }
                let objects = names.len();
                for (i, domain) in datatype_props.iter().enumerate() {
                    names.push(format!("d{i}"));
                    b = b
                        .datatype_property(&names[objects + i], &class(*domain), xsd::STRING)
                        .unwrap();
                }
                for (sub, sup) in subprops {
                    b = b
                        .subproperty_of(&names[sub % names.len()], &names[sup % names.len()])
                        .unwrap();
                }
                for (a, c) in inverses {
                    b = b.inverse(&names[a % objects], &names[c % objects]).unwrap();
                }
                b.build().unwrap()
            },
        )
    }

    proptest! {
        /// Semi-naive materialization reaches the naive fixpoint: equal
        /// graphs and equal returned counts, whether the facts arrive
        /// in one graph or the second batch lands on an already
        /// materialized one.
        #[test]
        fn materialize_agrees_with_naive_fixpoint(
            o in arb_rule_ontology(),
            facts in proptest::collection::vec((0usize..5, 0usize..12, 0usize..5), 0..25),
            split in 0usize..25,
        ) {
            let r = Reasoner::new(&o);
            let classes: Vec<&Iri> = o.classes().map(|c| c.iri()).collect();
            let properties: Vec<_> = o.properties().collect();
            let node = |i: usize| Iri::new(format!("http://prop.example/data/n{i}")).unwrap();
            let facts: Vec<Triple> = facts
                .into_iter()
                .map(|(s, pick, obj)| match properties.get(pick) {
                    Some(p) if p.kind() == PropertyKind::Object => {
                        Triple::new(node(s), p.iri().clone(), node(obj))
                    }
                    Some(p) => Triple::new(node(s), p.iri().clone(), Literal::integer(obj as i64)),
                    None => Triple::new(node(s), rdf::type_(), classes[pick % classes.len()].clone()),
                })
                .collect();
            let (first, second) = facts.split_at(split.min(facts.len()));

            let mut got: Graph = first.iter().cloned().collect();
            let mut want = got.clone();
            prop_assert_eq!(r.materialize(&mut got), materialize_naive(&r, &mut want));
            prop_assert_eq!(&got, &want);

            got.extend(second.iter().cloned());
            want.extend(second.iter().cloned());
            prop_assert_eq!(r.materialize(&mut got), materialize_naive(&r, &mut want));
            prop_assert_eq!(&got, &want);
            prop_assert_eq!(r.materialize(&mut got), 0);

            // The vector entry point takes the facts as they come:
            // unsorted, and with repeats.
            let doubled: Vec<Triple> = facts.iter().rev().chain(&facts).cloned().collect();
            let mut want: Graph = facts.iter().cloned().collect();
            materialize_naive(&r, &mut want);
            prop_assert_eq!(&r.materialized(doubled), &want);
        }
    }

    #[test]
    fn inverse_property_cycles_terminate_at_the_naive_fixpoint() {
        // p and q are inverses of each other and r of itself, and p ⊑ r:
        // every mirrored triple is the premise of another mirroring.
        let o = Ontology::builder("http://example.org/schema#")
            .class("A", None)
            .unwrap()
            .class("B", Some("A"))
            .unwrap()
            .object_property("p", "A", "B")
            .unwrap()
            .object_property("q", "B", "A")
            .unwrap()
            .object_property("r", "A", "A")
            .unwrap()
            .inverse("p", "q")
            .unwrap()
            .inverse("q", "p")
            .unwrap()
            .inverse("r", "r")
            .unwrap()
            .subproperty_of("p", "r")
            .unwrap()
            .build()
            .unwrap();
        let r = Reasoner::new(&o);
        let node = |n: &str| iri(&format!("http://example.org/data/{n}"));
        let facts = vec![
            Triple::new(node("x"), ex("p"), node("y")),
            Triple::new(node("y"), ex("p"), node("x")),
            Triple::new(node("y"), ex("q"), node("z")),
            Triple::new(node("z"), ex("r"), node("z")),
        ];
        let mut want: Graph = facts.iter().cloned().collect();
        let mut got = want.clone();
        let added = materialize_naive(&r, &mut want);
        assert!(want.contains(&Triple::new(node("y"), ex("r"), node("x"))), "{want:?}");
        assert_eq!(r.materialize(&mut got), added);
        assert_eq!(got, want);
        assert_eq!(r.materialized(facts), want);
    }

    #[test]
    fn closure_subsumption() {
        let o = onto();
        let r = Reasoner::new(&o);
        assert!(r.subsumes(&ex("Product"), &ex("Watch")));
        assert!(r.subsumes(&ex("Watch"), &ex("Watch")));
        assert!(!r.subsumes(&ex("Watch"), &ex("Product")));
    }

    #[test]
    fn materialize_domain_and_supertypes() {
        let o = onto();
        let r = Reasoner::new(&o);
        let mut g = Graph::new();
        g.insert(Triple::new(
            ind("w1").as_iri().unwrap().clone(),
            ex("brand"),
            Literal::string("Seiko"),
        ));
        let added = r.materialize(&mut g);
        assert!(added >= 1, "added={added}");
        let types: Vec<_> = g.objects(&ind("w1"), &rdf::type_()).collect();
        assert!(types.contains(&Term::from(ex("Product"))));
    }

    #[test]
    fn materialize_range_typing_for_object_property() {
        let o = onto();
        let r = Reasoner::new(&o);
        let mut g = Graph::new();
        g.insert(Triple::new(
            ind("w1").as_iri().unwrap().clone(),
            ex("provider"),
            ind("casio").as_iri().unwrap().clone(),
        ));
        r.materialize(&mut g);
        let types: Vec<_> = g.objects(&ind("casio"), &rdf::type_()).collect();
        assert!(types.contains(&Term::from(ex("Provider"))));
    }

    #[test]
    fn materialize_supertype_propagation_from_asserted_type() {
        let o = onto();
        let r = Reasoner::new(&o);
        let mut g = Graph::new();
        g.insert(Triple::new(ind("w1").as_iri().unwrap().clone(), rdf::type_(), ex("Watch")));
        r.materialize(&mut g);
        let types: Vec<_> = g.objects(&ind("w1"), &rdf::type_()).collect();
        assert!(types.contains(&Term::from(ex("Product"))));
    }

    #[test]
    fn materialize_is_idempotent() {
        let o = onto();
        let r = Reasoner::new(&o);
        let mut g = Graph::new();
        g.insert(Triple::new(ind("w1").as_iri().unwrap().clone(), rdf::type_(), ex("Watch")));
        r.materialize(&mut g);
        let len = g.len();
        assert_eq!(r.materialize(&mut g), 0);
        assert_eq!(g.len(), len);
    }

    #[test]
    fn realization_picks_most_specific() {
        let o = onto();
        let r = Reasoner::new(&o);
        let mut g = Graph::new();
        g.insert(Triple::new(ind("w1").as_iri().unwrap().clone(), rdf::type_(), ex("Watch")));
        r.materialize(&mut g);
        let real = r.realize(&g, &ind("w1"));
        assert_eq!(real, vec![ex("Watch")]);
    }

    #[test]
    fn disjointness_detected() {
        let o = onto();
        let r = Reasoner::new(&o);
        let mut g = Graph::new();
        let w = ind("x").as_iri().unwrap().clone();
        g.insert(Triple::new(w.clone(), rdf::type_(), ex("Product")));
        g.insert(Triple::new(w, rdf::type_(), ex("Provider")));
        let issues = r.check_consistency(&g);
        assert!(
            issues.iter().any(|i| matches!(i, ConsistencyIssue::DisjointViolation { .. })),
            "{issues:?}"
        );
    }

    #[test]
    fn functional_violation_detected() {
        let o = onto();
        let r = Reasoner::new(&o);
        let mut g = Graph::new();
        let w = ind("w1").as_iri().unwrap().clone();
        g.insert(Triple::new(w.clone(), ex("price"), Literal::decimal(10.0)));
        g.insert(Triple::new(w, ex("price"), Literal::decimal(12.0)));
        let issues = r.check_consistency(&g);
        assert!(issues
            .iter()
            .any(|i| matches!(i, ConsistencyIssue::FunctionalViolation { count: 2, .. })));
    }

    #[test]
    fn min_cardinality_violation_detected() {
        let o = onto();
        let r = Reasoner::new(&o);
        let mut g = Graph::new();
        // A Watch with no brand violates min 1 brand.
        g.insert(Triple::new(ind("w1").as_iri().unwrap().clone(), rdf::type_(), ex("Watch")));
        let issues = r.check_consistency(&g);
        assert!(
            issues
                .iter()
                .any(|i| matches!(i, ConsistencyIssue::CardinalityViolation { found: 0, .. })),
            "{issues:?}"
        );
    }

    #[test]
    fn range_violation_detected() {
        let o = onto();
        let r = Reasoner::new(&o);
        let mut g = Graph::new();
        g.insert(Triple::new(
            ind("w1").as_iri().unwrap().clone(),
            ex("price"),
            Literal::string("cheap"),
        ));
        let issues = r.check_consistency(&g);
        assert!(issues.iter().any(|i| matches!(i, ConsistencyIssue::RangeViolation { .. })));
    }

    #[test]
    fn consistent_graph_has_no_issues() {
        let o = onto();
        let r = Reasoner::new(&o);
        let mut g = Graph::new();
        let w = ind("w1").as_iri().unwrap().clone();
        g.insert(Triple::new(w.clone(), rdf::type_(), ex("Watch")));
        g.insert(Triple::new(w.clone(), ex("brand"), Literal::string("Seiko")));
        g.insert(Triple::new(w, ex("price"), Literal::decimal(129.99)));
        r.materialize(&mut g);
        let issues = r.check_consistency(&g);
        assert!(issues.is_empty(), "{issues:?}");
    }

    #[test]
    fn literal_conformance_rules() {
        assert!(literal_conforms(&Literal::string("x"), &iri(xsd::STRING)));
        assert!(literal_conforms(&Literal::string("42"), &iri(xsd::INTEGER)));
        assert!(!literal_conforms(&Literal::string("x"), &iri(xsd::INTEGER)));
        assert!(literal_conforms(&Literal::string("1.5"), &iri(xsd::DECIMAL)));
        assert!(literal_conforms(&Literal::string("true"), &iri(xsd::BOOLEAN)));
        assert!(literal_conforms(&Literal::string("2026-07-04"), &iri(xsd::DATE)));
        assert!(!literal_conforms(&Literal::string("July 4"), &iri(xsd::DATE)));
        assert!(literal_conforms(&Literal::string("http://x.org/"), &iri(xsd::ANY_URI)));
        assert!(!literal_conforms(&Literal::string("not a uri"), &iri(xsd::ANY_URI)));
        // Unknown datatype: open world.
        assert!(literal_conforms(&Literal::string("?"), &iri("http://x.org/custom")));
    }

    /// `xsd:decimal` has one lexical space, the one the Instance
    /// Generator types by: `1e5`, `NaN` and `INF` are `xsd:double`s, but
    /// they are not decimals; `inf` is neither.
    #[test]
    fn decimal_conformance_is_the_decimal_lexical_space() {
        let (decimal, double) = (iri(xsd::DECIMAL), iri(xsd::DOUBLE));
        for value in ["1e5", "NaN", "INF"] {
            assert!(!literal_conforms(&Literal::string(value), &decimal), "{value}");
            assert!(literal_conforms(&Literal::string(value), &double), "{value}");
        }
        assert!(!literal_conforms(&Literal::string("inf"), &double));
        for value in ["-.5", "+3.", "12"] {
            assert!(literal_conforms(&Literal::string(value), &decimal), "{value}");
        }

        let o = onto();
        let w = ind("w1").as_iri().unwrap().clone();
        let g: Graph = [Triple::new(w, ex("price"), Literal::typed("1e5", decimal.clone()))]
            .into_iter()
            .collect();
        let issues = Reasoner::new(&o).check_consistency(&g);
        assert!(
            issues.iter().any(|i| matches!(
                i,
                ConsistencyIssue::RangeViolation { value, expected, .. }
                    if value.lexical() == "1e5" && *expected == decimal
            )),
            "{issues:?}"
        );
    }

    #[test]
    fn inverse_property_mirrored() {
        let o = Ontology::builder("http://example.org/schema#")
            .class("Product", None)
            .unwrap()
            .class("Provider", None)
            .unwrap()
            .object_property("suppliedBy", "Product", "Provider")
            .unwrap()
            .object_property("supplies", "Provider", "Product")
            .unwrap()
            .inverse("suppliedBy", "supplies")
            .unwrap()
            .build()
            .unwrap();
        let r = Reasoner::new(&o);
        let mut g = Graph::new();
        let w = iri("http://example.org/data/w1");
        let p = iri("http://example.org/data/acme");
        g.insert(Triple::new(w.clone(), ex("suppliedBy"), p.clone()));
        r.materialize(&mut g);
        // Mirror triple exists...
        assert!(g.contains(&Triple::new(p.clone(), ex("supplies"), w.clone())));
        // ...and its domain typing was applied in the fixpoint loop.
        let types: Vec<_> = g.objects(&Term::from(p), &rdf::type_()).collect();
        assert!(types.contains(&Term::from(ex("Provider"))), "{types:?}");
        // Idempotent.
        assert_eq!(r.materialize(&mut g), 0);
    }

    #[test]
    fn equivalent_classes_share_instances_and_attributes() {
        let o = Ontology::builder("http://example.org/schema#")
            .class("Car", None)
            .unwrap()
            .class("Automobile", None)
            .unwrap()
            .equivalent("Car", "Automobile")
            .unwrap()
            .datatype_property("vin", "Car", xsd::STRING)
            .unwrap()
            .build()
            .unwrap();
        // Mutual subsumption.
        assert!(o.is_subclass_of(&ex("Car"), &ex("Automobile")));
        assert!(o.is_subclass_of(&ex("Automobile"), &ex("Car")));
        // Attributes flow across the equivalence.
        let attrs = o.properties_of_class(&ex("Automobile"));
        assert!(attrs.iter().any(|p| p.iri().local_name() == "vin"));
        // Instances are cross-typed by materialization.
        let r = Reasoner::new(&o);
        let mut g = Graph::new();
        g.insert(Triple::new(iri("http://example.org/data/c1"), rdf::type_(), ex("Car")));
        r.materialize(&mut g);
        let types: Vec<_> =
            g.objects(&Term::from(iri("http://example.org/data/c1")), &rdf::type_()).collect();
        assert!(types.contains(&Term::from(ex("Automobile"))), "{types:?}");
    }

    #[test]
    fn subproperty_values_propagate() {
        let o = Ontology::builder("http://example.org/schema#")
            .class("A", None)
            .unwrap()
            .datatype_property("id", "A", xsd::STRING)
            .unwrap()
            .datatype_property("key", "A", xsd::STRING)
            .unwrap()
            .subproperty_of("key", "id")
            .unwrap()
            .build()
            .unwrap();
        let r = Reasoner::new(&o);
        let mut g = Graph::new();
        let a = iri("http://example.org/data/a1");
        g.insert(Triple::new(a.clone(), ex("key"), Literal::string("k1")));
        r.materialize(&mut g);
        let vals: Vec<_> = g.objects(&Term::from(a), &ex("id")).collect();
        assert_eq!(vals.len(), 1);
    }
}
