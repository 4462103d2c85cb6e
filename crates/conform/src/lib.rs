//! # s2s-conform
//!
//! Deterministic, structure-aware differential testing for the S2S
//! middleware.
//!
//! The paper's core promise (§2.4–§2.6) is that a semantic query yields
//! the same ontology instances regardless of how extraction is
//! executed. The engine has one extraction pipeline (one wire exchange
//! per source) and three ways to run it — batched (one engine, one
//! client, asked repeatedly), result-cached replay, and the concurrent
//! ("pooled": N threads on one engine) arm — and this crate is the
//! harness that keeps them answer-equivalent:
//!
//! * [`scenario`] — seeded generators (vendored `rand` only) for
//!   ontology deployments across all four source kinds, valid-by-
//!   construction S2SQL queries, and scripted fault schedules,
//! * [`oracle`] — differential oracles running one scenario through
//!   every execution path and checking instance-set equality (modulo
//!   ordering) plus the `QueryStats` invariants the docs promise
//!   (completeness, `round_trips` conservation, cache deltas), and —
//!   on fault-free scenarios — the delta-maintenance arm that fuzzes
//!   source mutations against materialized semantic views and demands
//!   fingerprint-identity with recompute after every round,
//! * [`meta`] — metamorphic rewrites (S2SQL spelling variants,
//!   condition reordering, source/attribute registration permutation)
//!   that must not change answers,
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
//! ## Which scenarios may legally diverge?
//!
//! Cross-path answer equality is only a theorem for fault behaviour
//! that is *call-count independent*: the batched arm's repeat queries
//! meet each endpoint at later call indices, and the pooled arm's
//! clients interleave their calls on one endpoint in any order, so a
//! probabilistic fault stream answers each query differently. The
//! generator therefore draws
//! per-source fault classes from the equality-preserving set (reliable,
//! hard-down, hard-down with a reliable replica, and scheduled transient
//! faults strictly smaller than the retry budget), and probabilistic
//! `flaky(p)` endpoints are exercised by the per-path determinism and
//! completeness-monotonicity oracles instead, where they are sound.

#![forbid(unsafe_code)]

pub mod case;
pub mod meta;
pub mod oracle;
pub mod runner;
pub mod scenario;
pub mod shrink;

pub use case::{from_case, to_case};
pub use oracle::{check_scenario, fingerprint, Violation};
pub use runner::{fuzz, seed_from_str, FailingCase, FuzzOutcome};
pub use scenario::{Condition, FaultClass, Hostile, Scenario, SourceKindSpec, SourceSpec};
pub use shrink::shrink;
