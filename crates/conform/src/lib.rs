//! # s2s-conform
//!
//! Deterministic, structure-aware conformance testing for the S2S
//! middleware.
//!
//! The paper (§2.6) defines a query's answer by the source records and
//! the mapping. This crate generates deployments, states the answer each
//! must give without running the engine, and checks every way of running
//! the engine against it:
//!
//! * [`scenario`] — seeded generators (vendored `rand` only) for
//!   ontology deployments across all four source kinds, valid-by-
//!   construction S2SQL queries, and scripted fault schedules,
//! * [`expected`] — the ground truth: [`Scenario::expected`] computes the
//!   answer from the records, the conditions and each source's kind,
//!   record scenario and fault class, naming no crate of the workspace,
//! * [`oracle`] — runs one scenario through every row of one table of
//!   arms, reads each answer back from the RDF a client receives and
//!   checks it against the ground truth, plus the invariants that are
//!   not answers,
//! * [`meta`] — metamorphic rewrites (S2SQL spelling variants,
//!   condition reordering, source/attribute registration permutation),
//!   each one more row,
//! * [`shrink`](mod@shrink) — a greedy minimizer reducing a failing scenario to a
//!   small repro,
//! * [`case`] — self-contained text case files for repros, replayed
//!   from `crates/conform/corpus/` by `cargo test`,
//! * [`runner`] — the budgeted fuzz loop behind
//!   `experiments --conform-fuzz`.
//!
//! Everything is deterministic per seed: scenario `i` of a run is a
//! pure function of `base_seed` and `i`, and every endpoint RNG seed is
//! derived from the scenario seed through the explicit-seed
//! registration hook ([`s2s_core::middleware::S2s::register_remote_source_detailed`]).
//!
//! ## What can the ground truth state?
//!
//! [`Scenario::expected`] owes an answer only where the fault behaviour
//! does not depend on how often an arm calls an endpoint: the batched
//! arm's repeat queries meet each endpoint at later call indices, and
//! the pooled arm's clients interleave on one endpoint in any order. So
//! the generator draws fault classes the expected answer can state:
//!
//! * a source answers in full when it is reliable, hard-down behind a
//!   reliable replica, or scheduled fewer transient faults than the
//!   retry budget (with or without a standby replica for hedging);
//! * a source answers nothing and fails every attribute when it is
//!   hard-down without a replica, or (corpus only) maps hostile rules.
//!
//! Probabilistic `flaky(p)` endpoints have no stated answer except at
//! `p = 0`; above it they are held to completeness monotonicity and
//! determinism. A deadline cuts an answer to some subset of the
//! expected one.
//!
//! A condition compares in its attribute's declared range, which the
//! ground truth reads from the table the scenario ontology is built from
//! ([`scenario::RANGES`]): `price` is an `xsd:decimal`, ordered exactly
//! whatever its spelling and the whitespace around it, and a value
//! or constant outside the decimal lexical space satisfies no operator,
//! `!=` included; `brand` and `case` are `xsd:string`s, ordered by code
//! point. The catalog is 1–5 records of 3 attributes (XML and web pad
//! some prices, text and web lines carry a `unit_price` label) and 0–2
//! `AND`ed conjuncts, each a leaf or a `NOT`/`AND`/`OR` tree up to three
//! operators deep, and a generated catalog is `spelled`: some prices
//! are signed, zero-padded, fractional, exponent, non-finite or
//! placeholder forms, some brands and cases numeric-looking, non-ASCII
//! or with an apostrophe, and the constants hit them; every source kind
//! serves each verbatim, a database keeping its prices as `TEXT` when an
//! `INTEGER` column cannot. Catalogs of hundreds of rows are not
//! generated.

#![forbid(unsafe_code)]

pub mod case;
pub mod expected;
pub mod meta;
pub mod oracle;
pub mod runner;
pub mod scenario;
pub mod shrink;

pub use case::{from_case, to_case};
pub use expected::Answer;
pub use oracle::{check_scenario, Violation};
pub use runner::{fuzz, seed_from_str, FailingCase, FuzzOutcome};
pub use scenario::{Condition, FaultClass, Hostile, Scenario, SourceKindSpec, SourceSpec};
pub use shrink::shrink;
