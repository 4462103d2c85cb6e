//! Well-known vocabularies: RDF, RDFS, OWL, XSD.
//!
//! Each namespace exposes the raw IRI strings as constants plus
//! constructors returning validated [`crate::Iri`] values. Every
//! constructor validates and allocates its IRI once per process and
//! hands out clones of it (a reference-count bump), so `rdf::type_()`
//! or `xsd::string()` is cheap enough to call per triple.

use crate::term::Iri;

macro_rules! vocab {
    ($(#[$doc:meta])* $mod_name:ident, $ns:literal, { $($(#[$idoc:meta])* $fn_name:ident => $const_name:ident = $local:literal),* $(,)? }) => {
        $(#[$doc])*
        pub mod $mod_name {
            use super::Iri;

            /// The namespace IRI prefix.
            pub const NS: &str = $ns;

            $(
                $(#[$idoc])*
                pub const $const_name: &str = concat!($ns, $local);

                $(#[$idoc])*
                pub fn $fn_name() -> Iri {
                    static IRI: std::sync::OnceLock<Iri> = std::sync::OnceLock::new();
                    IRI.get_or_init(|| Iri::new($const_name).expect("well-known IRI is valid"))
                        .clone()
                }
            )*
        }
    };
}

vocab!(
    /// The `rdf:` namespace.
    rdf,
    "http://www.w3.org/1999/02/22-rdf-syntax-ns#",
    {
        /// `rdf:type`.
        type_ => TYPE = "type",
        /// `rdf:Property`.
        property => PROPERTY = "Property",
        /// `rdf:langString`.
        lang_string => LANG_STRING = "langString",
        /// `rdf:XMLLiteral`.
        xml_literal => XML_LITERAL = "XMLLiteral",
        /// `rdf:first`.
        first => FIRST = "first",
        /// `rdf:rest`.
        rest => REST = "rest",
        /// `rdf:nil`.
        nil => NIL = "nil",
    }
);

vocab!(
    /// The `rdfs:` namespace.
    rdfs,
    "http://www.w3.org/2000/01/rdf-schema#",
    {
        /// `rdfs:Class`.
        class => CLASS = "Class",
        /// `rdfs:subClassOf`.
        sub_class_of => SUB_CLASS_OF = "subClassOf",
        /// `rdfs:subPropertyOf`.
        sub_property_of => SUB_PROPERTY_OF = "subPropertyOf",
        /// `rdfs:domain`.
        domain => DOMAIN = "domain",
        /// `rdfs:range`.
        range => RANGE = "range",
        /// `rdfs:label`.
        label => LABEL = "label",
        /// `rdfs:comment`.
        comment => COMMENT = "comment",
        /// `rdfs:Literal`.
        literal => LITERAL = "Literal",
    }
);

vocab!(
    /// The `owl:` namespace.
    owl,
    "http://www.w3.org/2002/07/owl#",
    {
        /// `owl:Class`.
        class => CLASS = "Class",
        /// `owl:Ontology`.
        ontology => ONTOLOGY = "Ontology",
        /// `owl:ObjectProperty`.
        object_property => OBJECT_PROPERTY = "ObjectProperty",
        /// `owl:DatatypeProperty`.
        datatype_property => DATATYPE_PROPERTY = "DatatypeProperty",
        /// `owl:FunctionalProperty`.
        functional_property => FUNCTIONAL_PROPERTY = "FunctionalProperty",
        /// `owl:Thing`.
        thing => THING = "Thing",
        /// `owl:Nothing`.
        nothing => NOTHING = "Nothing",
        /// `owl:NamedIndividual`.
        named_individual => NAMED_INDIVIDUAL = "NamedIndividual",
        /// `owl:Restriction`.
        restriction => RESTRICTION = "Restriction",
        /// `owl:onProperty`.
        on_property => ON_PROPERTY = "onProperty",
        /// `owl:minCardinality`.
        min_cardinality => MIN_CARDINALITY = "minCardinality",
        /// `owl:maxCardinality`.
        max_cardinality => MAX_CARDINALITY = "maxCardinality",
        /// `owl:hasValue`.
        has_value => HAS_VALUE = "hasValue",
        /// `owl:someValuesFrom`.
        some_values_from => SOME_VALUES_FROM = "someValuesFrom",
        /// `owl:allValuesFrom`.
        all_values_from => ALL_VALUES_FROM = "allValuesFrom",
        /// `owl:equivalentClass`.
        equivalent_class => EQUIVALENT_CLASS = "equivalentClass",
        /// `owl:disjointWith`.
        disjoint_with => DISJOINT_WITH = "disjointWith",
        /// `owl:sameAs`.
        same_as => SAME_AS = "sameAs",
        /// `owl:differentFrom`.
        different_from => DIFFERENT_FROM = "differentFrom",
        /// `owl:inverseOf`.
        inverse_of => INVERSE_OF = "inverseOf",
    }
);

vocab!(
    /// The `xsd:` namespace.
    xsd,
    "http://www.w3.org/2001/XMLSchema#",
    {
        /// `xsd:string`.
        string => STRING = "string",
        /// `xsd:integer`.
        integer => INTEGER = "integer",
        /// `xsd:decimal`.
        decimal => DECIMAL = "decimal",
        /// `xsd:double`.
        double => DOUBLE = "double",
        /// `xsd:boolean`.
        boolean => BOOLEAN = "boolean",
        /// `xsd:date`.
        date => DATE = "date",
        /// `xsd:dateTime`.
        date_time => DATE_TIME = "dateTime",
        /// `xsd:anyURI`.
        any_uri => ANY_URI = "anyURI",
    }
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_compose_namespace_and_local() {
        assert_eq!(rdf::TYPE, "http://www.w3.org/1999/02/22-rdf-syntax-ns#type");
        assert_eq!(xsd::STRING, "http://www.w3.org/2001/XMLSchema#string");
        assert_eq!(owl::CLASS, "http://www.w3.org/2002/07/owl#Class");
        assert_eq!(rdfs::SUB_CLASS_OF, "http://www.w3.org/2000/01/rdf-schema#subClassOf");
    }

    #[test]
    fn constructors_are_valid_iris() {
        assert_eq!(rdf::type_().as_str(), rdf::TYPE);
        assert_eq!(owl::thing().local_name(), "Thing");
        assert_eq!(xsd::integer().namespace(), xsd::NS);
    }
}
