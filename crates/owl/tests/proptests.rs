//! Property tests for the ontology layer: hierarchy laws, closure
//! consistency, serialization round-trips, path resolution — and the
//! ontology's derived name tables held to the scans they replaced.

use proptest::prelude::*;
use proptest::TestRng;
use s2s_owl::{AttributePath, Ontology, OwlError, Reasoner};
use s2s_rdf::Iri;

/// Strategy: a random class tree of 1..=20 classes (each class's parent
/// is an earlier class or none), with 0..=2 properties per class.
fn arb_ontology() -> impl Strategy<Value = Ontology> {
    (
        proptest::collection::vec(proptest::option::of(0usize..20), 1..20),
        proptest::collection::vec(0usize..3, 1..20),
    )
        .prop_map(|(parents, prop_counts)| {
            let n = parents.len();
            let mut b = Ontology::builder("http://prop.example/#");
            for (i, parent_pick) in parents.iter().enumerate().take(n) {
                let parent = parent_pick.filter(|&p| p < i).map(|p| format!("K{p}"));
                b = b.class(&format!("K{i}"), parent.as_deref()).unwrap();
            }
            for (i, &count) in prop_counts.iter().take(n).enumerate() {
                for j in 0..count {
                    b = b
                        .datatype_property(
                            &format!("q{i}x{j}"),
                            &format!("K{i}"),
                            "http://www.w3.org/2001/XMLSchema#string",
                        )
                        .unwrap();
                }
            }
            b.build().unwrap()
        })
}

const XSD_STRING: &str = "http://www.w3.org/2001/XMLSchema#string";

/// Class and property names that collide when case is ignored, within
/// one namespace and across two.
const CLASS_NAMES: [&str; 8] =
    ["Kit", "kit", "KIT", "Box", "box", "Rod", "http://other.example/ns#kit", "urn:x:Box"];
const PROPERTY_NAMES: [&str; 7] =
    ["tag", "Tag", "TAG", "len", "Len", "http://other.example/ns#tag", "urn:x:LEN"];

/// An ontology whose local names collide: a class tree with
/// equivalences, every property declared on one class and some on a
/// second (a superclass, an equivalent class or an unrelated one).
fn colliding_ontology(rng: &mut TestRng) -> Ontology {
    let mut classes: Vec<&str> = Vec::new();
    let mut b = Ontology::builder("http://prop.example/#");
    for name in CLASS_NAMES {
        if rng.below(4) == 0 {
            continue;
        }
        let parent =
            (!classes.is_empty() && rng.below(3) > 0).then(|| classes[rng.below(classes.len())]);
        b = b.class(name, parent).unwrap();
        classes.push(name);
    }
    if classes.is_empty() {
        b = b.class("Kit", None).unwrap();
        classes.push("Kit");
    }
    for _ in 0..rng.below(3) {
        let (a, c) = (classes[rng.below(classes.len())], classes[rng.below(classes.len())]);
        b = b.equivalent(a, c).unwrap();
    }
    for name in PROPERTY_NAMES {
        if rng.below(4) == 0 {
            continue;
        }
        b = b.datatype_property(name, classes[rng.below(classes.len())], XSD_STRING).unwrap();
        if rng.below(3) == 0 {
            b = b.property_domain(name, classes[rng.below(classes.len())]).unwrap();
        }
    }
    b.build().unwrap()
}

/// `AttributePath::resolve` as it stood before the name tables: a scan
/// of every class per segment, the allocating superclass walk per pair
/// of segments, a scan of every property for the attribute.
fn resolve_by_scan(path: &AttributePath, o: &Ontology) -> Result<(Iri, Iri), String> {
    let mut resolved: Vec<Iri> = Vec::new();
    for seg in path.class_segments() {
        let found = o
            .classes()
            .find(|c| c.iri().local_name().eq_ignore_ascii_case(seg))
            .map(|c| c.iri().clone())
            .ok_or_else(|| format!("no class matches segment `{seg}`"))?;
        resolved.push(found);
    }
    for pair in resolved.windows(2) {
        if pair[1] != pair[0] && !o.superclasses(&pair[1]).contains(&pair[0]) {
            return Err(format!(
                "`{}` is not a subclass of `{}`",
                pair[1].local_name(),
                pair[0].local_name()
            ));
        }
    }
    let leaf = resolved.last().ok_or("path must contain at least one class segment")?.clone();
    let property = properties_by_scan(o, &leaf)
        .into_iter()
        .find(|p| p.local_name().eq_ignore_ascii_case(path.attribute_name()))
        .ok_or_else(|| {
            format!("class `{}` has no attribute `{}`", leaf.local_name(), path.attribute_name())
        })?;
    Ok((leaf, property))
}

/// `Ontology::properties_of_class` as a scan of every property.
fn properties_by_scan(o: &Ontology, class: &Iri) -> Vec<Iri> {
    let mut chain = vec![class.clone()];
    chain.extend(o.superclasses(class));
    o.properties()
        .filter(|p| p.domains().any(|d| chain.contains(d)))
        .map(|p| p.iri().clone())
        .collect()
}

proptest! {
    /// Path resolution through the ontology's name tables answers what
    /// the scans answered: the same class and property — the first in
    /// IRI order among case-colliding names — or the same reason for
    /// refusing; and the hierarchy reads behind it (`is_subclass_of`,
    /// `subclasses`, `properties_of_class`) agree with the walks.
    #[test]
    fn resolution_agrees_with_the_scans(seed in any::<u64>()) {
        let mut rng = TestRng::from_seed(seed);
        let o = colliding_ontology(&mut rng);
        let classes: Vec<Iri> = o.classes().map(|c| c.iri().clone()).collect();
        let outsider = Iri::new("http://prop.example/#Nowhere").unwrap();
        for a in classes.iter().chain([&outsider]) {
            let walked = o.superclasses(a);
            for b in classes.iter().chain([&outsider]) {
                prop_assert_eq!(o.is_subclass_of(a, b), a == b || walked.contains(b));
            }
            let below: Vec<Iri> = classes
                .iter()
                .filter(|c| *c != a && o.superclasses(c).contains(a))
                .cloned()
                .collect();
            prop_assert_eq!(o.subclasses(a), below);
            let listed: Vec<Iri> =
                o.properties_of_class(a).iter().map(|p| p.iri().clone()).collect();
            prop_assert_eq!(listed, properties_by_scan(&o, a));
        }

        let segments = ["kit", "Kit", "box", "BOX", "rod", "nope"];
        let attributes = ["tag", "TAG", "len", "Len", "nope"];
        for _ in 0..24 {
            let chain: Vec<&str> =
                (0..=rng.below(3)).map(|_| segments[rng.below(segments.len())]).collect();
            let path =
                AttributePath::new(chain, attributes[rng.below(attributes.len())]).unwrap();
            match (path.resolve(&o), resolve_by_scan(&path, &o)) {
                (Ok(got), Ok((class, property))) => {
                    prop_assert_eq!((got.class, got.property), (class, property), "{}", path);
                }
                (Err(OwlError::BadPath { path: named, reason }), Err(expected)) => {
                    prop_assert_eq!((named, reason), (path.to_string(), expected));
                }
                (got, expected) => prop_assert!(false, "{path}: {got:?} vs {expected:?}"),
            }
        }
    }

    /// Subsumption is reflexive and transitive; the reasoner closure
    /// agrees with the ontology's on-demand computation.
    #[test]
    fn subsumption_laws(o in arb_ontology()) {
        let r = Reasoner::new(&o);
        let classes: Vec<_> = o.classes().map(|c| c.iri().clone()).collect();
        for a in &classes {
            prop_assert!(o.is_subclass_of(a, a));
            prop_assert!(r.subsumes(a, a));
            for b in &classes {
                prop_assert_eq!(o.is_subclass_of(a, b), r.subsumes(b, a));
                for c in &classes {
                    if o.is_subclass_of(a, b) && o.is_subclass_of(b, c) {
                        prop_assert!(o.is_subclass_of(a, c));
                    }
                }
            }
        }
    }

    /// subclasses() and superclasses() are inverse relations.
    #[test]
    fn sub_super_inverse(o in arb_ontology()) {
        let classes: Vec<_> = o.classes().map(|c| c.iri().clone()).collect();
        for a in &classes {
            for b in o.subclasses(a) {
                prop_assert!(o.superclasses(&b).contains(a));
            }
            for s in o.superclasses(a) {
                prop_assert!(o.subclasses(&s).contains(a));
            }
        }
    }

    /// RDF serialization round-trips the structure.
    #[test]
    fn rdf_roundtrip(o in arb_ontology()) {
        let g = s2s_owl::serialize::to_graph(&o);
        let o2 = s2s_owl::serialize::from_graph(&g, "http://prop.example/#").unwrap();
        prop_assert_eq!(o2.class_count(), o.class_count());
        prop_assert_eq!(o2.property_count(), o.property_count());
        // Subsumption preserved.
        let classes: Vec<_> = o.classes().map(|c| c.iri().clone()).collect();
        for a in &classes {
            for b in &classes {
                prop_assert_eq!(o.is_subclass_of(a, b), o2.is_subclass_of(a, b));
            }
        }
    }

    /// Every generated canonical path resolves back to its own
    /// class/property pair.
    #[test]
    fn path_roundtrip(o in arb_ontology()) {
        for class in o.classes() {
            for prop in o.properties_of_class(class.iri()) {
                let path =
                    AttributePath::for_attribute(&o, class.iri(), prop.iri()).unwrap();
                let resolved = path.resolve(&o).unwrap();
                prop_assert_eq!(&resolved.class, class.iri());
                prop_assert_eq!(&resolved.property, prop.iri());
                // And the textual form re-parses to the same path.
                let reparsed: AttributePath = path.to_string().parse().unwrap();
                prop_assert_eq!(reparsed, path);
            }
        }
    }

    /// properties_of_class grows monotonically down the hierarchy: a
    /// subclass sees at least its superclass's attributes.
    #[test]
    fn attribute_inheritance_monotone(o in arb_ontology()) {
        for class in o.classes() {
            let own: Vec<_> =
                o.properties_of_class(class.iri()).iter().map(|p| p.iri().clone()).collect();
            for sub in o.subclasses(class.iri()) {
                let sub_props: Vec<_> =
                    o.properties_of_class(&sub).iter().map(|p| p.iri().clone()).collect();
                for p in &own {
                    prop_assert!(sub_props.contains(p));
                }
            }
        }
    }

    /// Materialization is idempotent and only ever adds type triples for
    /// superclasses of asserted types.
    #[test]
    fn materialization_idempotent(o in arb_ontology(), picks in proptest::collection::vec(0usize..20, 0..6)) {
        use s2s_rdf::{Graph, Iri, Triple};
        let classes: Vec<_> = o.classes().map(|c| c.iri().clone()).collect();
        let mut g = Graph::new();
        for (i, &pick) in picks.iter().enumerate() {
            let class = &classes[pick % classes.len()];
            let ind = Iri::new(format!("http://prop.example/data/i{i}")).unwrap();
            g.insert(Triple::new(ind, s2s_rdf::vocab::rdf::type_(), class.clone()));
        }
        let r = Reasoner::new(&o);
        r.materialize(&mut g);
        let len = g.len();
        prop_assert_eq!(r.materialize(&mut g), 0);
        prop_assert_eq!(g.len(), len);
    }
}
