//! # s2s-obs
//!
//! Observability for the S2S middleware: per-query **trace trees**, a
//! process-wide **metrics registry**, and **exporters** for both.
//!
//! The crate is deliberately a leaf: it depends only on `parking_lot`
//! and stores every duration as plain `u64` microseconds, so both
//! `s2s-netsim` (virtual time) and `s2s-core` (wall time) can feed it
//! without a dependency cycle.
//!
//! * [`trace`] — [`Span`]/[`Trace`]: a tree of `query → parse / map /
//!   plan → batch[source] → attempt[endpoint] / rule[attr]` spans, each
//!   carrying simulated and wall-clock durations, an [`SpanOutcome`],
//!   and free-form attributes (cache provenance, retry counts, …).
//! * [`metrics`] — [`Counter`], [`Gauge`], and fixed-bucket latency
//!   [`Histogram`]s (p50/p90/p99 summaries) behind a [`MetricsRegistry`].
//! * [`export`] — a human-readable text tree, a JSON-lines trace dump,
//!   and a Prometheus-style text snapshot. Each machine-readable format
//!   ships with a minimal parser so CI can validate round-trips.
//! * [`names`] — the canonical name of every metric emitted
//!   ([`names::ALL`]), so emitters and audits cannot drift apart on
//!   spelling; each constant says which figure it is read from.
//!
//! ## The global registry and the enabled flag
//!
//! Instrumentation call sites throughout the workspace are guarded by
//! [`enabled`], a single relaxed atomic load that defaults to `false`.
//! With metrics disabled the instrumented hot paths do no other work —
//! no registry lookups, no allocation — so the observability layer is
//! free unless switched on via [`set_enabled`].

#![forbid(unsafe_code)]

pub mod export;
pub mod metrics;
pub mod names;
pub mod trace;

pub use export::{
    parse_jsonl, parse_prometheus, render_jsonl, render_jsonl_records, render_prometheus,
    render_tree, MetricSample, SpanRecord,
};
pub use metrics::{Counter, Gauge, Histogram, MetricsRegistry};
pub use trace::{Span, SpanKind, SpanOutcome, Trace};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

static ENABLED: AtomicBool = AtomicBool::new(false);
static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();

/// Whether process-wide metrics collection is on.
///
/// Instrumented call sites check this before touching the registry, so
/// the disabled path costs one relaxed atomic load.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns process-wide metrics collection on or off.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// The process-wide metrics registry.
///
/// Lazily created on first use; shared by every crate in the workspace.
pub fn global() -> &'static MetricsRegistry {
    GLOBAL.get_or_init(MetricsRegistry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_by_default_and_toggleable() {
        // Other tests may race on the global flag; only assert the
        // toggle round-trips.
        set_enabled(true);
        assert!(enabled());
        set_enabled(false);
        assert!(!enabled());
    }

    #[test]
    fn global_registry_is_a_singleton() {
        let a = global() as *const MetricsRegistry;
        let b = global() as *const MetricsRegistry;
        assert_eq!(a, b);
    }
}
