//! # s2s — Syntactic-to-Semantic middleware
//!
//! Façade crate re-exporting the full S2S workspace: an ontology-based
//! multi-source data extractor/wrapper middleware that answers a single
//! semantic query (S2SQL) over heterogeneous, autonomous, distributed data
//! sources and returns OWL ontology instances.
//!
//! Reproduces Silva & Cardoso, *"Semantic Data Extraction for B2B
//! Integration"*, IWDDS @ ICDCS 2006.
//!
//! See the individual crates for details:
//!
//! * [`textmatch`] — regular-expression engine,
//! * [`rdf`] — RDF data model, triple store, serializations,
//! * [`owl`] — OWL ontology layer and structural reasoner,
//! * [`minidb`] — in-memory relational engine (structured sources),
//! * [`xml`] — XML parser, DOM and XPath subset (semi-structured sources),
//! * [`webdoc`] — HTML/plain-text documents and the WebL-like extraction
//!   language (unstructured sources),
//! * [`netsim`] — simulated distributed environment,
//! * [`obs`] — observability: per-query trace trees, metrics registry,
//!   exporters,
//! * [`core`] — the S2S middleware itself (mapping, extraction, S2SQL,
//!   instance generation).

#![forbid(unsafe_code)]

pub use s2s_core as core;
pub use s2s_minidb as minidb;
pub use s2s_netsim as netsim;
pub use s2s_obs as obs;
pub use s2s_owl as owl;
pub use s2s_rdf as rdf;
pub use s2s_textmatch as textmatch;
pub use s2s_webdoc as webdoc;
pub use s2s_xml as xml;

pub use s2s_core::middleware::{QueryOptions, S2s};
