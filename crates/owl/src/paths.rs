//! Attribute paths — the dotted identifiers of the paper's Figure 4.
//!
//! The paper keys all mapping information on *attributes*, identified by a
//! path through the ontology class hierarchy ending in a property name:
//! `thing.product.watch.case`. "Besides having a unique ID to each
//! attribute […] it is possible to have a path to the attributes (through
//! the ontology classes) keeping a notion of the ontology hierarchy."
//!
//! [`AttributePath`] parses, prints, generates, and resolves such paths
//! against an [`Ontology`].

use std::fmt;

use s2s_rdf::Iri;

use crate::error::OwlError;
use crate::model::Ontology;

/// A dotted attribute path, e.g. `thing.product.watch.brand`.
///
/// Segments are stored lowercase; the leading `thing` root segment is
/// implicit and always printed.
///
/// # Examples
///
/// ```
/// use s2s_owl::AttributePath;
///
/// let p: AttributePath = "thing.product.watch.brand".parse()?;
/// assert_eq!(p.attribute_name(), "brand");
/// assert_eq!(p.class_segments(), ["product", "watch"]);
/// # Ok::<(), s2s_owl::OwlError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AttributePath {
    /// Class segments (lowercased local names), outermost first, without
    /// the `thing` root.
    classes: Vec<String>,
    /// The final attribute (property) segment.
    attribute: String,
}

/// The result of resolving an [`AttributePath`] against an ontology.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResolvedAttribute {
    /// The most specific class on the path.
    pub class: Iri,
    /// The property the path names.
    pub property: Iri,
}

impl AttributePath {
    /// Builds a path from explicit class segments and an attribute name.
    ///
    /// # Errors
    ///
    /// Returns [`OwlError::BadPath`] if any segment is empty or contains
    /// `.` or whitespace.
    pub fn new<I, S>(classes: I, attribute: &str) -> Result<Self, OwlError>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let classes: Vec<String> =
            classes.into_iter().map(|s| s.as_ref().to_ascii_lowercase()).collect();
        for seg in classes.iter().chain(std::iter::once(&attribute.to_ascii_lowercase())) {
            if seg.is_empty() || seg.contains('.') || seg.chars().any(char::is_whitespace) {
                return Err(OwlError::BadPath {
                    path: format!("{}.{attribute}", classes.join(".")),
                    reason: "segments must be non-empty and contain no dots or spaces".into(),
                });
            }
        }
        Ok(AttributePath { classes, attribute: attribute.to_ascii_lowercase() })
    }

    /// The final attribute segment.
    pub fn attribute_name(&self) -> &str {
        &self.attribute
    }

    /// The class segments (without the `thing` root).
    pub fn class_segments(&self) -> &[String] {
        &self.classes
    }

    /// Generates the canonical path for `property` on `class`, walking up
    /// the class hierarchy to the root (paper Fig. 4: the path keeps "a
    /// notion of the ontology hierarchy").
    ///
    /// # Errors
    ///
    /// Returns [`OwlError::UnknownClass`] / [`OwlError::UnknownProperty`]
    /// if either IRI is not defined in `ontology`.
    pub fn for_attribute(
        ontology: &Ontology,
        class: &Iri,
        property: &Iri,
    ) -> Result<Self, OwlError> {
        if ontology.class(class).is_none() {
            return Err(OwlError::UnknownClass { name: class.as_str().to_string() });
        }
        if ontology.property(property).is_none() {
            return Err(OwlError::UnknownProperty { name: property.as_str().to_string() });
        }
        // Chain from root to `class`: superclasses are unordered, so order
        // them by repeatedly taking a parent chain (first parent).
        let mut chain = vec![class.clone()];
        let mut cur = class.clone();
        loop {
            let parent = ontology
                .class(&cur)
                .and_then(|c| c.parents().find(|p| ontology.class(p).is_some()).cloned());
            match parent {
                Some(p) => {
                    chain.push(p.clone());
                    cur = p;
                }
                None => break,
            }
        }
        chain.reverse();
        let classes: Vec<String> =
            chain.iter().map(|c| c.local_name().to_ascii_lowercase()).collect();
        AttributePath::new(classes, &property.local_name().to_ascii_lowercase())
    }

    /// Resolves the path against `ontology`: checks every class segment
    /// exists, consecutive segments are in a subclass relationship, and
    /// the attribute names a property applicable to the leaf class.
    ///
    /// # Errors
    ///
    /// Returns [`OwlError::BadPath`] describing the first violated
    /// condition.
    pub fn resolve(&self, ontology: &Ontology) -> Result<ResolvedAttribute, OwlError> {
        let bad = |reason: String| OwlError::BadPath { path: self.to_string(), reason };

        // Map each class segment to a class IRI by case-insensitive local
        // name.
        let mut resolved: Vec<&Iri> = Vec::with_capacity(self.classes.len());
        for seg in &self.classes {
            let found = ontology
                .class_named(seg)
                .ok_or_else(|| bad(format!("no class matches segment `{seg}`")))?;
            resolved.push(found);
        }
        if resolved.is_empty() {
            return Err(bad("path must contain at least one class segment".into()));
        }
        for pair in resolved.windows(2) {
            if !ontology.is_subclass_of(pair[1], pair[0]) {
                return Err(bad(format!(
                    "`{}` is not a subclass of `{}`",
                    pair[1].local_name(),
                    pair[0].local_name()
                )));
            }
        }
        let leaf = *resolved.last().expect("non-empty");
        let property = ontology
            .properties_of_class(leaf)
            .into_iter()
            .find(|p| p.iri().local_name().eq_ignore_ascii_case(&self.attribute))
            .map(|p| p.iri().clone())
            .ok_or_else(|| {
                bad(format!("class `{}` has no attribute `{}`", leaf.local_name(), self.attribute))
            })?;
        Ok(ResolvedAttribute { class: leaf.clone(), property })
    }
}

impl fmt::Display for AttributePath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "thing")?;
        for c in &self.classes {
            write!(f, ".{c}")?;
        }
        write!(f, ".{}", self.attribute)
    }
}

impl std::str::FromStr for AttributePath {
    type Err = OwlError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut segments: Vec<&str> = s.split('.').collect();
        if segments.len() < 2 {
            return Err(OwlError::BadPath {
                path: s.to_string(),
                reason: "a path needs at least a class and an attribute".into(),
            });
        }
        // Optional leading `thing` root.
        if segments.first().is_some_and(|s| s.eq_ignore_ascii_case("thing")) {
            segments.remove(0);
        }
        let attribute = segments.pop().ok_or_else(|| OwlError::BadPath {
            path: s.to_string(),
            reason: "missing attribute segment".into(),
        })?;
        if segments.is_empty() {
            return Err(OwlError::BadPath {
                path: s.to_string(),
                reason: "a path needs at least one class segment".into(),
            });
        }
        AttributePath::new(segments, attribute)
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
    fn parse_and_display_roundtrip() {
        let p: AttributePath = "thing.product.watch.case".parse().unwrap();
        assert_eq!(p.to_string(), "thing.product.watch.case");
        // `thing` prefix is optional on input.
        let q: AttributePath = "product.watch.case".parse().unwrap();
        assert_eq!(p, q);
    }

    #[test]
    fn parse_rejects_degenerate() {
        assert!("".parse::<AttributePath>().is_err());
        assert!("brand".parse::<AttributePath>().is_err());
        assert!("thing.brand".parse::<AttributePath>().is_err());
        assert!("a..b".parse::<AttributePath>().is_err());
    }

    #[test]
    fn resolve_paper_example() {
        // The paper's `thing.product.brand` mapping key.
        let o = watch_ontology();
        let p: AttributePath = "thing.product.brand".parse().unwrap();
        let r = p.resolve(&o).unwrap();
        assert_eq!(r.class.local_name(), "Product");
        assert_eq!(r.property.local_name(), "brand");
    }

    #[test]
    fn resolve_inherited_attribute() {
        // `case` is on Watch; `brand` is inherited from Product.
        let o = watch_ontology();
        let p: AttributePath = "thing.product.watch.brand".parse().unwrap();
        let r = p.resolve(&o).unwrap();
        assert_eq!(r.class.local_name(), "Watch");
        assert_eq!(r.property.local_name(), "brand");
    }

    #[test]
    fn resolve_checks_hierarchy() {
        let o = watch_ontology();
        // Provider is not a subclass of Product.
        let p: AttributePath = "thing.product.provider.brand".parse().unwrap();
        assert!(matches!(p.resolve(&o), Err(OwlError::BadPath { .. })));
    }

    #[test]
    fn resolve_unknown_class_or_attribute() {
        let o = watch_ontology();
        let p: AttributePath = "thing.gadget.brand".parse().unwrap();
        assert!(p.resolve(&o).is_err());
        let p: AttributePath = "thing.product.nonexistent".parse().unwrap();
        assert!(p.resolve(&o).is_err());
    }

    #[test]
    fn generated_path_resolves_back() {
        let o = watch_ontology();
        let watch = o.class_iri("Watch").unwrap();
        let case = o.property_iri("case").unwrap();
        let p = AttributePath::for_attribute(&o, &watch, &case).unwrap();
        assert_eq!(p.to_string(), "thing.product.watch.case");
        let r = p.resolve(&o).unwrap();
        assert_eq!(r.class, watch);
        assert_eq!(r.property, case);
    }

    #[test]
    fn case_insensitive_resolution() {
        let o = watch_ontology();
        let p: AttributePath = "Thing.Product.Watch.Case".parse().unwrap();
        assert!(p.resolve(&o).is_ok());
    }

    #[test]
    fn ordering_usable_as_map_key() {
        let a: AttributePath = "thing.product.brand".parse().unwrap();
        let b: AttributePath = "thing.product.watch.case".parse().unwrap();
        let mut m = std::collections::BTreeMap::new();
        m.insert(a.clone(), 1);
        m.insert(b, 2);
        assert_eq!(m[&a], 1);
        assert_eq!(m.len(), 2);
    }
}
