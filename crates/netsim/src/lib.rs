//! # s2s-netsim
//!
//! A simulated distributed environment for the S2S middleware.
//!
//! The paper integrates *distributed* data sources (remote databases, web
//! sites, file servers). This reproduction cannot reach the 2006
//! internet, so remote access is simulated — with enough mechanism that
//! the middleware exercises the same code paths a networked deployment
//! would:
//!
//! * [`cost`] — deterministic latency/bandwidth models (base RTT +
//!   jitter + per-KiB transfer time) driven by a seeded RNG,
//! * [`endpoint`] — remote endpoints as cost-and-fault meters: each
//!   call is charged simulated time for the bytes it moves, or fails
//!   (unreachable / timeout / flaky / scheduled); the endpoint runs
//!   nothing and wraps no resource,
//! * [`wire`] — length-prefixed request/response framing (the bytes that
//!   "cross the network"),
//! * [`feed`] — per-source mutation logs with monotone version counters
//!   and a `poll_changes(since)` exchange over the wire framing, so the
//!   mediator can maintain materialized views incrementally,
//! * [`sched`] — greedy list scheduling on k lanes, on both clocks:
//!   how long a set of remote calls takes under serial vs k-way
//!   overlap in virtual time ([`makespan`]), and the paced wall-clock
//!   wait a caller owes when every query of a resident mediator shares
//!   the same k slots ([`Lanes`]) — no thread behind either,
//! * [`retry`] — retry policies: exponential backoff with deterministic
//!   seeded jitter, per-attempt timeouts, and overall deadlines, all in
//!   virtual time,
//! * [`breaker`] — per-endpoint circuit breakers (Closed → Open →
//!   HalfOpen) driven by explicit virtual `now`, with transition
//!   counters,
//! * [`admission`] — bounded admission with per-tenant deficit-round-
//!   robin dequeue, early load shedding against deadline budgets, and
//!   the percentile latency tracker behind hedged requests.
//!
//! Time is **virtual**: calls return a [`SimDuration`] cost instead of
//! sleeping, so experiments are deterministic and fast while preserving
//! the *shape* of distributed-systems effects (stragglers, crossover
//! points, partial failure).

#![forbid(unsafe_code)]

pub mod admission;
pub mod breaker;
pub mod cost;
pub mod endpoint;
pub mod error;
pub mod feed;
pub mod retry;
pub mod sched;
pub mod wire;

pub use admission::{
    AdmissionConfig, AdmissionController, AdmissionGuard, AdmissionStats, HedgeConfig, Hedger,
    ShedReason,
};
pub use breaker::{BreakerConfig, BreakerCounters, BreakerState, CircuitBreaker};
pub use cost::{defer_pacing, pace_sleep, CostModel, SimDuration};
pub use endpoint::{Endpoint, EndpointStats, FailureModel, FaultKind, FaultSchedule};
pub use error::NetError;
pub use feed::{ChangeEvent, ChangeFeed, ChangeKind, FeedGap};
pub use retry::{invoke_with_retry, RetryOutcome, RetryPolicy};
pub use sched::{makespan, Lanes};
pub use wire::{decode, decode_batch, encode, encode_batch, Frame, FrameKind};
