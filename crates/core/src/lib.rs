//! # s2s-core
//!
//! The Syntactic-to-Semantic (S2S) middleware of Silva & Cardoso (IWDDS @
//! ICDCS 2006): based on a single query, integrates data residing in
//! different data sources — possibly with different formats, structures,
//! schemas, and semantics — and returns the result as OWL ontology
//! instances.
//!
//! Architecture (paper Figure 1):
//!
//! * [`source`] — the data-source registry: the "centralized connection
//!   information store" of §2.3.2, wrapping structured
//!   ([`s2s_minidb`]), semi-structured ([`s2s_xml`]), and unstructured
//!   ([`s2s_webdoc`]) sources, optionally behind simulated remote
//!   endpoints ([`s2s_netsim`]);
//! * [`mapping`] — the Mapping Module of §2.3: attribute naming,
//!   extraction rules, and attribute mapping (the 3-step registration of
//!   Figure 3), keyed on ontology attribute paths;
//! * [`extract`] — the Extractor Manager of §2.4: obtains extraction
//!   schemas and source definitions, then runs the 4-step extraction
//!   process of Figure 5 through per-source-type wrappers, serially or
//!   in parallel;
//! * [`query`] — the Query Handler of §2.5: the S2SQL language
//!   (`SELECT <class> WHERE <attr><op><constraint> AND …`, no FROM);
//! * [`instance`] — the Instance Generator of §2.6: compiles extracted
//!   fragments into OWL individuals, reports per-source errors, and
//!   serializes to OWL/RDF-XML, Turtle, N-Triples, XML, or text;
//! * [`middleware`] — the [`middleware::S2s`] façade tying it all
//!   together: a `Send + Sync` resident engine whose queries each run
//!   on their caller's thread, layered behind an [`engine`]
//!   plan cache and (opt-in) query-result cache;
//! * [`engine`] — the resident engine's query-level caches (the plan
//!   cache and [`engine::QueryResultCache`]) over its one LRU store;
//! * [`baseline`] — the syntactic-only integrator used as the paper's
//!   implicit comparison system (experiment E8).

#![forbid(unsafe_code)]

pub mod baseline;
pub mod bootstrap;
pub mod engine;
pub mod error;
pub mod extract;
pub mod instance;
pub mod mapping;
pub mod middleware;
pub mod planner;
pub mod query;
pub mod source;
pub mod spec;
pub mod view;
mod wrapper;

pub use bootstrap::{
    BootstrapReport, ClassCandidate, Conflict, MappingCandidate, SchemaField, SchemaSummary,
};
pub use engine::{CacheStats, DependencySet, QueryResultCache};
pub use error::{FailureClass, S2sError};
pub use extract::{ResilienceContext, ResiliencePolicy, SourceHealth};
pub use middleware::{Priority, QueryOptions, S2s};
pub use planner::{plan_pushdown, PushdownPlan, SourcePlan};
pub use view::{SemanticViews, ViewSlice, ViewStats};
