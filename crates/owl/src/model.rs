//! The ontology model: classes, properties, restrictions.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::OnceLock;

use s2s_rdf::{Iri, Literal};

use crate::error::OwlError;

/// The kind of an OWL property.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PropertyKind {
    /// `owl:DatatypeProperty`: values are literals.
    Datatype,
    /// `owl:ObjectProperty`: values are individuals.
    Object,
}

/// A class definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassDef {
    iri: Iri,
    label: Option<String>,
    comment: Option<String>,
    parents: BTreeSet<Iri>,
    disjoint_with: BTreeSet<Iri>,
    equivalent_to: BTreeSet<Iri>,
    restrictions: Vec<Restriction>,
}

impl ClassDef {
    /// The class IRI.
    pub fn iri(&self) -> &Iri {
        &self.iri
    }

    /// `rdfs:label`, if any.
    pub fn label(&self) -> Option<&str> {
        self.label.as_deref()
    }

    /// `rdfs:comment`, if any.
    pub fn comment(&self) -> Option<&str> {
        self.comment.as_deref()
    }

    /// Direct superclasses.
    pub fn parents(&self) -> impl Iterator<Item = &Iri> {
        self.parents.iter()
    }

    /// Classes declared disjoint with this one.
    pub fn disjoint_with(&self) -> impl Iterator<Item = &Iri> {
        self.disjoint_with.iter()
    }

    /// Classes declared equivalent to this one (`owl:equivalentClass`).
    pub fn equivalent_to(&self) -> impl Iterator<Item = &Iri> {
        self.equivalent_to.iter()
    }

    /// Restrictions this class is a subclass of.
    pub fn restrictions(&self) -> &[Restriction] {
        &self.restrictions
    }
}

/// A property definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PropertyDef {
    iri: Iri,
    kind: PropertyKind,
    label: Option<String>,
    domains: BTreeSet<Iri>,
    ranges: BTreeSet<Iri>,
    functional: bool,
    parents: BTreeSet<Iri>,
    inverse_of: Option<Iri>,
}

impl PropertyDef {
    /// The property IRI.
    pub fn iri(&self) -> &Iri {
        &self.iri
    }

    /// Datatype or object property.
    pub fn kind(&self) -> PropertyKind {
        self.kind
    }

    /// `rdfs:label`, if any.
    pub fn label(&self) -> Option<&str> {
        self.label.as_deref()
    }

    /// Declared `rdfs:domain` classes.
    pub fn domains(&self) -> impl Iterator<Item = &Iri> {
        self.domains.iter()
    }

    /// Declared `rdfs:range` classes or datatypes.
    pub fn ranges(&self) -> impl Iterator<Item = &Iri> {
        self.ranges.iter()
    }

    /// Whether the property is functional (at most one value).
    pub fn functional(&self) -> bool {
        self.functional
    }

    /// Direct superproperties.
    pub fn parents(&self) -> impl Iterator<Item = &Iri> {
        self.parents.iter()
    }

    /// The declared inverse property (`owl:inverseOf`), if any.
    pub fn inverse_of(&self) -> Option<&Iri> {
        self.inverse_of.as_ref()
    }
}

/// An OWL restriction attached to a class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Restriction {
    /// `owl:minCardinality` on a property.
    MinCardinality {
        /// Restricted property.
        property: Iri,
        /// Minimum number of values.
        min: u32,
    },
    /// `owl:maxCardinality` on a property.
    MaxCardinality {
        /// Restricted property.
        property: Iri,
        /// Maximum number of values.
        max: u32,
    },
    /// `owl:hasValue` on a datatype property.
    HasValue {
        /// Restricted property.
        property: Iri,
        /// Required value.
        value: Literal,
    },
    /// `owl:someValuesFrom`: at least one value from the given class.
    SomeValuesFrom {
        /// Restricted property.
        property: Iri,
        /// Filler class.
        class: Iri,
    },
    /// `owl:allValuesFrom`: every value from the given class.
    AllValuesFrom {
        /// Restricted property.
        property: Iri,
        /// Filler class.
        class: Iri,
    },
}

impl Restriction {
    /// The property this restriction constrains.
    pub fn property(&self) -> &Iri {
        match self {
            Restriction::MinCardinality { property, .. }
            | Restriction::MaxCardinality { property, .. }
            | Restriction::HasValue { property, .. }
            | Restriction::SomeValuesFrom { property, .. }
            | Restriction::AllValuesFrom { property, .. } => property,
        }
    }
}

/// An OWL ontology: a namespace plus class and property definitions.
///
/// Construct with [`Ontology::builder`] or parse from RDF with
/// [`crate::serialize::from_graph`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ontology {
    namespace: String,
    classes: BTreeMap<Iri, ClassDef>,
    properties: BTreeMap<Iri, PropertyDef>,
    derived: Derived,
}

/// What an ontology derives from its definitions, computed on first
/// use: an ontology is immutable once built, every [`crate::Reasoner`]
/// over it (one per generated answer) reads the same closure, and every
/// attribute path resolved against it reads the same name tables.
/// Derived from `classes` and `properties`, so it takes no part in
/// equality.
#[derive(Clone, Default)]
struct Derived(OnceLock<Tables>);

#[derive(Clone, Default)]
struct Tables {
    /// Class → all its transitive superclasses (excluding itself).
    closure: BTreeMap<Iri, BTreeSet<Iri>>,
    /// Lower-cased local name → the first class in IRI order carrying it.
    class_by_name: BTreeMap<String, Iri>,
    /// Declared domain → the properties declaring it, in IRI order.
    properties_by_domain: BTreeMap<Iri, Vec<Iri>>,
}

impl PartialEq for Derived {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl Eq for Derived {}

impl fmt::Debug for Derived {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(if self.0.get().is_some() { "computed" } else { "not computed" })
    }
}

impl Ontology {
    /// Starts building an ontology rooted at `namespace` (a IRI prefix
    /// ending in `#` or `/`).
    pub fn builder(namespace: impl Into<String>) -> crate::builder::OntologyBuilder {
        crate::builder::OntologyBuilder::new(namespace)
    }

    pub(crate) fn from_parts(
        namespace: String,
        classes: BTreeMap<Iri, ClassDef>,
        properties: BTreeMap<Iri, PropertyDef>,
    ) -> Self {
        Ontology { namespace, classes, properties, derived: Derived::default() }
    }

    fn tables(&self) -> &Tables {
        self.derived.0.get_or_init(|| {
            let mut tables = Tables::default();
            for class in self.classes.keys() {
                tables
                    .closure
                    .insert(class.clone(), self.superclasses(class).into_iter().collect());
                tables
                    .class_by_name
                    .entry(class.local_name().to_ascii_lowercase())
                    .or_insert_with(|| class.clone());
            }
            for (property, def) in &self.properties {
                for domain in &def.domains {
                    tables
                        .properties_by_domain
                        .entry(domain.clone())
                        .or_default()
                        .push(property.clone());
                }
            }
            tables
        })
    }

    /// The subsumption closure: class → all its transitive superclasses
    /// ([`Ontology::superclasses`] of every class), computed once per
    /// ontology.
    pub(crate) fn subsumption_closure(&self) -> &BTreeMap<Iri, BTreeSet<Iri>> {
        &self.tables().closure
    }

    /// The first class in IRI order whose local name is `name`, ignoring
    /// ASCII case: one map lookup, where a scan of
    /// [`Ontology::classes`] would be linear in the ontology.
    pub fn class_named(&self, name: &str) -> Option<&Iri> {
        self.tables().class_by_name.get(&name.to_ascii_lowercase())
    }

    /// The ontology namespace prefix.
    pub fn namespace(&self) -> &str {
        &self.namespace
    }

    /// Resolves a local class name (or full IRI) to the class IRI.
    ///
    /// # Errors
    ///
    /// Returns [`OwlError::UnknownClass`] if no such class is defined.
    pub fn class_iri(&self, name: &str) -> Result<Iri, OwlError> {
        self.resolve(name)
            .filter(|iri| self.classes.contains_key(iri))
            .ok_or_else(|| OwlError::UnknownClass { name: name.to_string() })
    }

    /// Resolves a local property name (or full IRI) to the property IRI.
    ///
    /// # Errors
    ///
    /// Returns [`OwlError::UnknownProperty`] if no such property is
    /// defined.
    pub fn property_iri(&self, name: &str) -> Result<Iri, OwlError> {
        self.resolve(name)
            .filter(|iri| self.properties.contains_key(iri))
            .ok_or_else(|| OwlError::UnknownProperty { name: name.to_string() })
    }

    fn resolve(&self, name: &str) -> Option<Iri> {
        if name.contains(':') {
            Iri::new(name).ok()
        } else {
            Iri::new(format!("{}{}", self.namespace, name)).ok()
        }
    }

    /// Looks up a class definition.
    pub fn class(&self, iri: &Iri) -> Option<&ClassDef> {
        self.classes.get(iri)
    }

    /// Looks up a property definition.
    pub fn property(&self, iri: &Iri) -> Option<&PropertyDef> {
        self.properties.get(iri)
    }

    /// Iterates over all classes in IRI order.
    pub fn classes(&self) -> impl Iterator<Item = &ClassDef> {
        self.classes.values()
    }

    /// Iterates over all properties in IRI order.
    pub fn properties(&self) -> impl Iterator<Item = &PropertyDef> {
        self.properties.values()
    }

    /// Number of classes.
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }

    /// Number of properties.
    pub fn property_count(&self) -> usize {
        self.properties.len()
    }

    /// All (transitive) superclasses of `class`, excluding itself.
    ///
    /// Equivalent classes (`owl:equivalentClass`) count as mutual
    /// subclasses: the result includes each equivalent of any class on
    /// the chain, and their superclasses.
    pub fn superclasses(&self, class: &Iri) -> Vec<Iri> {
        let mut out = Vec::new();
        let mut seen = BTreeSet::new();
        seen.insert(class.clone());
        let mut stack: Vec<Iri> = self
            .classes
            .get(class)
            .map(|c| c.parents.iter().chain(c.equivalent_to.iter()).cloned().collect())
            .unwrap_or_default();
        while let Some(p) = stack.pop() {
            if p != *class && seen.insert(p.clone()) {
                if let Some(def) = self.classes.get(&p) {
                    stack.extend(def.parents.iter().cloned());
                    stack.extend(def.equivalent_to.iter().cloned());
                }
                out.push(p);
            }
        }
        out
    }

    /// All (transitive) subclasses of `class`, excluding itself — the
    /// exact inverse of [`Ontology::superclasses`] (so equivalence is
    /// honoured symmetrically).
    pub fn subclasses(&self, class: &Iri) -> Vec<Iri> {
        self.subsumption_closure()
            .iter()
            .filter(|(c, superclasses)| *c != class && superclasses.contains(class))
            .map(|(c, _)| c.clone())
            .collect()
    }

    /// Whether `sub` is equal to or a transitive subclass of `sup`.
    pub fn is_subclass_of(&self, sub: &Iri, sup: &Iri) -> bool {
        sub == sup || self.subsumption_closure().get(sub).is_some_and(|s| s.contains(sup))
    }

    /// Properties whose declared domain includes `class` or any of its
    /// superclasses (i.e. the attributes applicable to the class), in
    /// IRI order. Reads the per-domain table along the class's closure,
    /// so the cost follows the class's own attributes, not the ontology.
    pub fn properties_of_class(&self, class: &Iri) -> Vec<&PropertyDef> {
        let tables = self.tables();
        let mut applicable: Vec<&Iri> = std::iter::once(class)
            .chain(tables.closure.get(class).into_iter().flatten())
            .flat_map(|c| tables.properties_by_domain.get(c).into_iter().flatten())
            .collect();
        // A property declaring two classes of the chain is listed twice.
        applicable.sort();
        applicable.dedup();
        applicable.into_iter().map(|p| &self.properties[p]).collect()
    }

    /// The root classes (classes with no defined parent inside this
    /// ontology).
    pub fn roots(&self) -> impl Iterator<Item = &ClassDef> {
        self.classes.values().filter(|c| !c.parents.iter().any(|p| self.classes.contains_key(p)))
    }
}

pub(crate) struct ClassParts {
    pub iri: Iri,
    pub label: Option<String>,
    pub comment: Option<String>,
    pub parents: BTreeSet<Iri>,
    pub disjoint_with: BTreeSet<Iri>,
    pub equivalent_to: BTreeSet<Iri>,
    pub restrictions: Vec<Restriction>,
}

impl From<ClassParts> for ClassDef {
    fn from(p: ClassParts) -> Self {
        ClassDef {
            iri: p.iri,
            label: p.label,
            comment: p.comment,
            parents: p.parents,
            disjoint_with: p.disjoint_with,
            equivalent_to: p.equivalent_to,
            restrictions: p.restrictions,
        }
    }
}

pub(crate) struct PropertyParts {
    pub iri: Iri,
    pub kind: PropertyKind,
    pub label: Option<String>,
    pub domains: BTreeSet<Iri>,
    pub ranges: BTreeSet<Iri>,
    pub functional: bool,
    pub parents: BTreeSet<Iri>,
    pub inverse_of: Option<Iri>,
}

impl From<PropertyParts> for PropertyDef {
    fn from(p: PropertyParts) -> Self {
        PropertyDef {
            iri: p.iri,
            kind: p.kind,
            label: p.label,
            domains: p.domains,
            ranges: p.ranges,
            functional: p.functional,
            parents: p.parents,
            inverse_of: p.inverse_of,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn watch_ontology() -> Ontology {
        Ontology::builder("http://example.org/schema#")
            .class("Product", None)
            .unwrap()
            .class("Watch", Some("Product"))
            .unwrap()
            .class("DiveWatch", Some("Watch"))
            .unwrap()
            .class("Provider", None)
            .unwrap()
            .datatype_property("brand", "Product", s2s_rdf::vocab::xsd::STRING)
            .unwrap()
            .datatype_property("case", "Watch", s2s_rdf::vocab::xsd::STRING)
            .unwrap()
            .object_property("provider", "Product", "Provider")
            .unwrap()
            .build()
            .unwrap()
    }

    #[test]
    fn class_resolution_by_name_and_iri() {
        let o = watch_ontology();
        let by_name = o.class_iri("Watch").unwrap();
        let by_iri = o.class_iri("http://example.org/schema#Watch").unwrap();
        assert_eq!(by_name, by_iri);
        assert!(o.class_iri("Nope").is_err());
    }

    #[test]
    fn transitive_subsumption() {
        let o = watch_ontology();
        let dive = o.class_iri("DiveWatch").unwrap();
        let product = o.class_iri("Product").unwrap();
        let provider = o.class_iri("Provider").unwrap();
        assert!(o.is_subclass_of(&dive, &product));
        assert!(o.is_subclass_of(&dive, &dive));
        assert!(!o.is_subclass_of(&product, &dive));
        assert!(!o.is_subclass_of(&dive, &provider));
    }

    #[test]
    fn subclasses_and_superclasses() {
        let o = watch_ontology();
        let product = o.class_iri("Product").unwrap();
        let subs = o.subclasses(&product);
        assert_eq!(subs.len(), 2);
        let dive = o.class_iri("DiveWatch").unwrap();
        assert_eq!(o.superclasses(&dive).len(), 2);
    }

    #[test]
    fn properties_inherited_through_domain() {
        let o = watch_ontology();
        let dive = o.class_iri("DiveWatch").unwrap();
        let props = o.properties_of_class(&dive);
        let names: Vec<_> = props.iter().map(|p| p.iri().local_name().to_string()).collect();
        assert!(names.contains(&"brand".to_string()), "{names:?}");
        assert!(names.contains(&"case".to_string()));
        assert!(names.contains(&"provider".to_string()));

        let provider = o.class_iri("Provider").unwrap();
        assert!(o.properties_of_class(&provider).is_empty());
    }

    #[test]
    fn roots_are_parentless() {
        let o = watch_ontology();
        let roots: Vec<_> = o.roots().map(|c| c.iri().local_name().to_string()).collect();
        assert_eq!(roots, ["Product", "Provider"]);
    }

    #[test]
    fn property_kinds() {
        let o = watch_ontology();
        let brand = o.property_iri("brand").unwrap();
        assert_eq!(o.property(&brand).unwrap().kind(), PropertyKind::Datatype);
        let provider = o.property_iri("provider").unwrap();
        assert_eq!(o.property(&provider).unwrap().kind(), PropertyKind::Object);
    }

    #[test]
    fn counts() {
        let o = watch_ontology();
        assert_eq!(o.class_count(), 4);
        assert_eq!(o.property_count(), 3);
        assert_eq!(o.classes().count(), 4);
        assert_eq!(o.properties().count(), 3);
    }
}
