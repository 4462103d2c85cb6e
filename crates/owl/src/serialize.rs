//! Ontology ⇄ RDF graph conversion using the OWL vocabulary.
//!
//! [`to_graph`] emits the standard OWL/RDF encoding (`owl:Class`,
//! `owl:DatatypeProperty`, `rdfs:subClassOf`, restrictions as blank
//! nodes); [`from_graph`] reads it back. Combined with the serializers in
//! [`s2s_rdf`], this gives the OWL-document round trip the paper's §2.2
//! assumes ("S2S middleware represents ontologies using OWL").

use std::collections::BTreeMap;

use s2s_rdf::vocab::{owl, rdf, rdfs};
use s2s_rdf::{BlankNode, Graph, Iri, Literal, Term, Triple};

use crate::error::OwlError;
use crate::model::{Ontology, PropertyKind, Restriction};

/// Serializes an ontology into an RDF graph.
pub fn to_graph(ontology: &Ontology) -> Graph {
    // Triples in emission order; the graph is built from them once.
    let mut g = Vec::new();
    let mut blank = 0usize;
    let mut fresh_blank = || {
        blank += 1;
        BlankNode::new(format!("r{blank}")).expect("generated label is valid")
    };

    // Ontology header.
    if let Ok(ns_iri) = Iri::new(ontology.namespace().trim_end_matches(['#', '/'])) {
        g.push(Triple::new(ns_iri, rdf::type_(), owl::ontology()));
    }

    for class in ontology.classes() {
        g.push(Triple::new(class.iri().clone(), rdf::type_(), owl::class()));
        for parent in class.parents() {
            g.push(Triple::new(class.iri().clone(), rdfs::sub_class_of(), parent.clone()));
        }
        if let Some(label) = class.label() {
            g.push(Triple::new(class.iri().clone(), rdfs::label(), Literal::string(label)));
        }
        if let Some(comment) = class.comment() {
            g.push(Triple::new(class.iri().clone(), rdfs::comment(), Literal::string(comment)));
        }
        for d in class.disjoint_with() {
            g.push(Triple::new(class.iri().clone(), owl::disjoint_with(), d.clone()));
        }
        for e in class.equivalent_to() {
            g.push(Triple::new(class.iri().clone(), owl::equivalent_class(), e.clone()));
        }
        for r in class.restrictions() {
            let node = fresh_blank();
            g.push(Triple::new(node.clone(), rdf::type_(), owl::restriction()));
            g.push(Triple::new(
                class.iri().clone(),
                rdfs::sub_class_of(),
                Term::from(node.clone()),
            ));
            g.push(Triple::new(node.clone(), owl::on_property(), r.property().clone()));
            match r {
                Restriction::MinCardinality { min, .. } => {
                    g.push(Triple::new(
                        node,
                        owl::min_cardinality(),
                        Literal::integer(*min as i64),
                    ));
                }
                Restriction::MaxCardinality { max, .. } => {
                    g.push(Triple::new(
                        node,
                        owl::max_cardinality(),
                        Literal::integer(*max as i64),
                    ));
                }
                Restriction::HasValue { value, .. } => {
                    g.push(Triple::new(node, owl::has_value(), value.clone()));
                }
                Restriction::SomeValuesFrom { class, .. } => {
                    g.push(Triple::new(node, owl::some_values_from(), class.clone()));
                }
                Restriction::AllValuesFrom { class, .. } => {
                    g.push(Triple::new(node, owl::all_values_from(), class.clone()));
                }
            }
        }
    }

    for prop in ontology.properties() {
        let kind = match prop.kind() {
            PropertyKind::Datatype => owl::datatype_property(),
            PropertyKind::Object => owl::object_property(),
        };
        g.push(Triple::new(prop.iri().clone(), rdf::type_(), kind));
        if prop.functional() {
            g.push(Triple::new(prop.iri().clone(), rdf::type_(), owl::functional_property()));
        }
        for d in prop.domains() {
            g.push(Triple::new(prop.iri().clone(), rdfs::domain(), d.clone()));
        }
        for r in prop.ranges() {
            g.push(Triple::new(prop.iri().clone(), rdfs::range(), r.clone()));
        }
        for p in prop.parents() {
            g.push(Triple::new(prop.iri().clone(), rdfs::sub_property_of(), p.clone()));
        }
        if let Some(inv) = prop.inverse_of() {
            g.push(Triple::new(prop.iri().clone(), owl::inverse_of(), inv.clone()));
        }
        if let Some(label) = prop.label() {
            g.push(Triple::new(prop.iri().clone(), rdfs::label(), Literal::string(label)));
        }
    }
    g.into_iter().collect()
}

/// Parses an ontology from an RDF graph in the encoding produced by
/// [`to_graph`] (which is also the common hand-authored OWL style).
///
/// `namespace` becomes the ontology's local namespace for name
/// resolution.
///
/// # Errors
///
/// Returns [`OwlError::HierarchyCycle`] if the parsed subclass graph is
/// cyclic. Unknown constructs are skipped (open-world reading).
pub fn from_graph(graph: &Graph, namespace: &str) -> Result<Ontology, OwlError> {
    let rdf_type = rdf::type_();

    // Restriction blank nodes: node → (property, restriction kind data).
    let restriction_type = Term::from(owl::restriction());
    let mut restrictions: BTreeMap<Term, Restriction> = BTreeMap::new();
    for node in graph.subjects(&rdf_type, &restriction_type) {
        let Some(on_prop) =
            graph.object(&node, &owl::on_property()).and_then(|t| t.as_iri().cloned())
        else {
            continue;
        };
        let r = if let Some(min) = graph
            .object(&node, &owl::min_cardinality())
            .and_then(|t| t.as_literal().and_then(|l| l.as_integer()))
        {
            Restriction::MinCardinality { property: on_prop, min: min.max(0) as u32 }
        } else if let Some(max) = graph
            .object(&node, &owl::max_cardinality())
            .and_then(|t| t.as_literal().and_then(|l| l.as_integer()))
        {
            Restriction::MaxCardinality { property: on_prop, max: max.max(0) as u32 }
        } else if let Some(v) =
            graph.object(&node, &owl::has_value()).and_then(|t| t.as_literal().cloned())
        {
            Restriction::HasValue { property: on_prop, value: v }
        } else if let Some(c) =
            graph.object(&node, &owl::some_values_from()).and_then(|t| t.as_iri().cloned())
        {
            Restriction::SomeValuesFrom { property: on_prop, class: c }
        } else if let Some(c) =
            graph.object(&node, &owl::all_values_from()).and_then(|t| t.as_iri().cloned())
        {
            Restriction::AllValuesFrom { property: on_prop, class: c }
        } else {
            continue;
        };
        restrictions.insert(node, r);
    }

    // Build through the builder to reuse validation; declare classes
    // first (parents may appear in any order, so declare all, then link).
    let mut builder = Ontology::builder(namespace);
    let class_type = Term::from(owl::class());
    let mut class_iris: Vec<Iri> =
        graph.subjects(&rdf_type, &class_type).filter_map(|t| t.as_iri().cloned()).collect();
    class_iris.sort();
    class_iris.dedup();
    for c in &class_iris {
        builder = builder.class(c.as_str(), None)?;
    }
    // Restriction links and subproperty links reference properties, which
    // are declared after classes — defer them to a second pass.
    let mut deferred_restrictions: Vec<(Iri, Iri, RKind)> = Vec::new();
    let mut deferred_subprops: Vec<(Iri, Iri)> = Vec::new();
    let mut deferred_inverses: Vec<(Iri, Iri)> = Vec::new();
    for c in &class_iris {
        let subject = Term::from(c.clone());
        for o in graph.objects(&subject, &rdfs::sub_class_of()) {
            match o {
                Term::Iri(parent) if class_iris.contains(&parent) => {
                    builder = builder.subclass_of(c.as_str(), parent.as_str())?;
                }
                blank @ Term::Blank(_) => {
                    if let Some(r) = restrictions.get(&blank) {
                        match r.clone() {
                            Restriction::MinCardinality { property, min } => {
                                deferred_restrictions.push((c.clone(), property, RKind::Min(min)));
                            }
                            Restriction::MaxCardinality { property, max } => {
                                deferred_restrictions.push((c.clone(), property, RKind::Max(max)));
                            }
                            Restriction::HasValue { property, value } => {
                                deferred_restrictions.push((
                                    c.clone(),
                                    property,
                                    RKind::HasValue(value),
                                ));
                            }
                            Restriction::SomeValuesFrom { property, class } => {
                                deferred_restrictions.push((
                                    c.clone(),
                                    property,
                                    RKind::Some(class),
                                ));
                            }
                            Restriction::AllValuesFrom { .. } => {} // not in builder API
                        }
                    }
                }
                _ => {}
            }
        }
        if let Some(label) = graph
            .object(&subject, &rdfs::label())
            .and_then(|t| t.as_literal().map(|l| l.lexical().to_string()))
        {
            builder = builder.class_label(c.as_str(), &label)?;
        }
        if let Some(comment) = graph
            .object(&subject, &rdfs::comment())
            .and_then(|t| t.as_literal().map(|l| l.lexical().to_string()))
        {
            builder = builder.class_comment(c.as_str(), &comment)?;
        }
        for d in graph.objects(&subject, &owl::disjoint_with()) {
            if let Some(d) = d.as_iri() {
                if class_iris.contains(d) && c < d {
                    builder = builder.disjoint(c.as_str(), d.as_str())?;
                }
            }
        }
        for e in graph.objects(&subject, &owl::equivalent_class()) {
            if let Some(e) = e.as_iri() {
                if class_iris.contains(e) && c < e {
                    builder = builder.equivalent(c.as_str(), e.as_str())?;
                }
            }
        }
    }

    for (kind, ty) in [
        (PropertyKind::Datatype, owl::datatype_property()),
        (PropertyKind::Object, owl::object_property()),
    ] {
        let ty_term = Term::from(ty);
        let mut props: Vec<Iri> =
            graph.subjects(&rdf_type, &ty_term).filter_map(|t| t.as_iri().cloned()).collect();
        props.sort();
        props.dedup();
        for p in props {
            let subject = Term::from(p.clone());
            let domains: Vec<Iri> = graph
                .objects(&subject, &rdfs::domain())
                .filter_map(|t| t.as_iri().cloned())
                .collect();
            let ranges: Vec<Iri> = graph
                .objects(&subject, &rdfs::range())
                .filter_map(|t| t.as_iri().cloned())
                .collect();
            let (Some(domain), Some(range)) = (domains.first(), ranges.first()) else {
                continue; // skip underspecified properties
            };
            builder = match kind {
                PropertyKind::Datatype => {
                    builder.datatype_property(p.as_str(), domain.as_str(), range.as_str())?
                }
                PropertyKind::Object => {
                    builder.object_property(p.as_str(), domain.as_str(), range.as_str())?
                }
            };
            for extra in domains.iter().skip(1) {
                builder = builder.property_domain(p.as_str(), extra.as_str())?;
            }
            let functional = Term::from(owl::functional_property());
            if graph.objects(&subject, &rdf_type).any(|t| t == functional) {
                builder = builder.functional(p.as_str())?;
            }
            for parent in graph.objects(&subject, &rdfs::sub_property_of()) {
                if let Some(parent) = parent.as_iri() {
                    deferred_subprops.push((p.clone(), parent.clone()));
                }
            }
            for inv in graph.objects(&subject, &owl::inverse_of()) {
                if let Some(inv) = inv.as_iri() {
                    deferred_inverses.push((p.clone(), inv.clone()));
                }
            }
            if let Some(label) = graph
                .object(&subject, &rdfs::label())
                .and_then(|t| t.as_literal().map(|l| l.lexical().to_string()))
            {
                // Property labels are kept only if the builder exposes a
                // setter; it does not, so labels on properties are dropped
                // in this round trip (documented limitation).
                let _ = label;
            }
        }
    }

    // Second pass: replay restriction and subproperty links now that all
    // properties exist.
    for (class, property, kind) in deferred_restrictions {
        builder = match kind {
            RKind::Min(min) => builder.min_cardinality(class.as_str(), property.as_str(), min)?,
            RKind::Max(max) => builder.max_cardinality(class.as_str(), property.as_str(), max)?,
            RKind::HasValue(v) => builder.has_value(class.as_str(), property.as_str(), v)?,
            RKind::Some(f) => {
                builder.some_values_from(class.as_str(), property.as_str(), f.as_str())?
            }
        };
    }
    for (sub, sup) in deferred_subprops {
        builder = builder.subproperty_of(sub.as_str(), sup.as_str())?;
    }
    for (a, b) in deferred_inverses {
        // The pair appears twice (both directions); applying either sets
        // both sides, so the second application is a harmless repeat.
        builder = builder.inverse(a.as_str(), b.as_str())?;
    }

    builder.build()
}

#[derive(Debug, Clone)]
enum RKind {
    Min(u32),
    Max(u32),
    HasValue(Literal),
    Some(Iri),
}

#[cfg(test)]
mod tests {
    use super::*;
    use s2s_rdf::vocab::xsd;

    fn onto() -> Ontology {
        Ontology::builder("http://example.org/schema#")
            .class("Product", None)
            .unwrap()
            .class("Watch", Some("Product"))
            .unwrap()
            .class("Provider", None)
            .unwrap()
            .class_label("Watch", "Wrist watch")
            .unwrap()
            .class_comment("Product", "Anything sellable")
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
            .max_cardinality("Watch", "price", 1)
            .unwrap()
            .has_value("Watch", "brand", Literal::string("Seiko"))
            .unwrap()
            .some_values_from("Watch", "provider", "Provider")
            .unwrap()
            .build()
            .unwrap()
    }

    #[test]
    fn to_graph_emits_owl_vocabulary() {
        let g = to_graph(&onto());
        let class_term = Term::from(owl::class());
        assert_eq!(g.subjects(&rdf::type_(), &class_term).count(), 3);
        let dt = Term::from(owl::datatype_property());
        assert_eq!(g.subjects(&rdf::type_(), &dt).count(), 2);
        let op = Term::from(owl::object_property());
        assert_eq!(g.subjects(&rdf::type_(), &op).count(), 1);
        let rt = Term::from(owl::restriction());
        assert_eq!(g.subjects(&rdf::type_(), &rt).count(), 4);
    }

    #[test]
    fn roundtrip_preserves_structure() {
        let original = onto();
        let g = to_graph(&original);
        let parsed = from_graph(&g, "http://example.org/schema#").unwrap();
        assert_eq!(to_graph(&parsed), g, "the graph did not round-trip");

        assert_eq!(parsed.class_count(), original.class_count());
        assert_eq!(parsed.property_count(), original.property_count());

        let watch = parsed.class_iri("Watch").unwrap();
        let product = parsed.class_iri("Product").unwrap();
        assert!(parsed.is_subclass_of(&watch, &product));

        let price = parsed.property_iri("price").unwrap();
        assert!(parsed.property(&price).unwrap().functional());

        // Restrictions survive (AllValuesFrom is documented as dropped;
        // none here).
        let w = parsed.class(&watch).unwrap();
        assert_eq!(w.restrictions().len(), 4);

        // Disjointness survives.
        let provider = parsed.class_iri("Provider").unwrap();
        assert!(parsed.class(&product).unwrap().disjoint_with().any(|d| d == &provider));

        // Labels/comments survive on classes.
        assert_eq!(parsed.class(&watch).unwrap().label(), Some("Wrist watch"));
        assert_eq!(parsed.class(&product).unwrap().comment(), Some("Anything sellable"));
    }

    #[test]
    fn roundtrip_through_turtle_text() {
        let original = onto();
        let g = to_graph(&original);
        let prefixes = s2s_rdf::turtle::PrefixMap::with_well_known();
        let text = s2s_rdf::turtle::serialize(&g, &prefixes);
        let g2 = s2s_rdf::turtle::parse(&text).unwrap();
        let parsed = from_graph(&g2, "http://example.org/schema#").unwrap();
        assert_eq!(parsed.class_count(), 3);
        assert_eq!(parsed.property_count(), 3);
    }

    #[test]
    fn from_graph_skips_underspecified_properties() {
        let mut g = Graph::new();
        let p = Iri::new("http://x.org/p").unwrap();
        g.insert(Triple::new(p, rdf::type_(), owl::datatype_property()));
        // No domain/range: skipped, not an error.
        let o = from_graph(&g, "http://x.org/").unwrap();
        assert_eq!(o.property_count(), 0);
    }

    #[test]
    fn equivalence_and_inverse_roundtrip() {
        let o = Ontology::builder("http://example.org/schema#")
            .class("Car", None)
            .unwrap()
            .class("Automobile", None)
            .unwrap()
            .class("Maker", None)
            .unwrap()
            .equivalent("Car", "Automobile")
            .unwrap()
            .object_property("madeBy", "Car", "Maker")
            .unwrap()
            .object_property("makes", "Maker", "Car")
            .unwrap()
            .inverse("madeBy", "makes")
            .unwrap()
            .build()
            .unwrap();
        let g = to_graph(&o);
        let parsed = from_graph(&g, "http://example.org/schema#").unwrap();
        let car = parsed.class_iri("Car").unwrap();
        let auto = parsed.class_iri("Automobile").unwrap();
        assert!(parsed.is_subclass_of(&car, &auto));
        assert!(parsed.is_subclass_of(&auto, &car));
        let made_by = parsed.property_iri("madeBy").unwrap();
        let makes = parsed.property_iri("makes").unwrap();
        assert_eq!(parsed.property(&made_by).unwrap().inverse_of(), Some(&makes));
        assert_eq!(parsed.property(&makes).unwrap().inverse_of(), Some(&made_by));
    }

    #[test]
    fn from_graph_empty_graph() {
        let o = from_graph(&Graph::new(), "http://x.org/").unwrap();
        assert_eq!(o.class_count(), 0);
        assert_eq!(o.property_count(), 0);
    }
}
