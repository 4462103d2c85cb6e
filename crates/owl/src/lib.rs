//! # s2s-owl
//!
//! OWL ontology layer of the S2S middleware.
//!
//! The paper (§2.2) uses an OWL ontology as the shared conceptualization
//! that all data sources are mapped against: "the ontology schema defines
//! the structure and the semantics of data". This crate provides:
//!
//! * [`Ontology`] — classes, datatype/object properties, hierarchy,
//!   restrictions ([`model`]), with a fluent [`builder`],
//! * [`AttributePath`] — the dotted attribute identifiers of the paper's
//!   Figure 4 (`thing.product.watch.brand`) used as mapping keys
//!   ([`paths`]),
//! * [`Reasoner`] — a structural reasoner: subsumption closure,
//!   domain/range inference, realization, and consistency checking over
//!   instance graphs ([`reasoner`]),
//! * RDF (de)serialization of ontologies using the OWL vocabulary
//!   ([`serialize`]).
//!
//! # Examples
//!
//! ```
//! use s2s_owl::{Ontology, PropertyKind};
//!
//! # fn main() -> Result<(), s2s_owl::OwlError> {
//! let onto = Ontology::builder("http://example.org/schema#")
//!     .class("Product", None)?
//!     .class("Watch", Some("Product"))?
//!     .datatype_property("brand", "Product", "http://www.w3.org/2001/XMLSchema#string")?
//!     .build()?;
//! assert!(onto.is_subclass_of(&onto.class_iri("Watch")?, &onto.class_iri("Product")?));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod builder;
pub mod error;
pub mod model;
pub mod paths;
pub mod reasoner;
pub mod serialize;

pub use builder::OntologyBuilder;
pub use error::OwlError;
pub use model::{ClassDef, Ontology, PropertyDef, PropertyKind, Restriction};
pub use paths::AttributePath;
pub use reasoner::{ConsistencyIssue, Reasoner};
