//! # s2s-rdf
//!
//! RDF data model and triple store for the S2S middleware.
//!
//! The paper's S2S middleware wraps extracted syntactic data as OWL
//! ontology instances; OWL is layered on RDF, so this crate provides the
//! foundation: terms ([`Iri`], [`BlankNode`], [`Literal`]), [`Triple`]s, an
//! indexed in-memory [`Graph`] with pattern queries, and serialization to
//! and from N-Triples, Turtle, and RDF/XML (the concrete syntax the paper's
//! Instance Generator emits).
//!
//! The store answers any triple pattern with at least one bound position
//! by a range scan over one of three orderings (SPO, POS, OSP). SPO is
//! maintained on every write; POS and OSP are derived from it the first
//! time a pattern needs them and dropped by the next write, so building,
//! iterating and serializing a graph costs one index (see [`graph`]).
//!
//! # Examples
//!
//! ```
//! use s2s_rdf::{Graph, Iri, Literal, Term, Triple};
//!
//! # fn main() -> Result<(), s2s_rdf::RdfError> {
//! let mut g = Graph::new();
//! let watch = Iri::new("http://example.org/product/81")?;
//! let brand = Iri::new("http://example.org/schema#brand")?;
//! g.insert(Triple::new(watch.clone(), brand.clone(), Literal::string("Seiko")));
//!
//! let hits: Vec<_> = g.match_pattern(Some(&Term::from(watch)), Some(&brand), None).collect();
//! assert_eq!(hits.len(), 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod error;
pub mod graph;
pub mod ntriples;
pub mod rdfxml;
pub mod term;
pub mod triple;
pub mod turtle;
pub mod vocab;

pub use error::RdfError;
pub use graph::Graph;
pub use term::{BlankNode, Iri, Literal, Term};
pub use triple::Triple;
