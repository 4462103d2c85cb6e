//! Materialized semantic views: one `(source, attribute path)` slice —
//! the values a mapping's rule extracted — stamped with the source
//! version it reflects, kept current against the source's change feed
//! (DESIGN.md §4k). A current slice is served (a **hit**); a stale one
//! whose retained events name no field the rule reads (the source
//! kind's wrapper computes the read set from the compiled rule; a rule
//! with an unknowable one, or an event naming no field, touches
//! everything) is advanced without re-extraction (still a hit);
//! otherwise the slice is re-extracted (a **refresh**), from scratch
//! after a feed gap (a **full refresh**). Views therefore never serve
//! values a recompute would not produce — what the `s2s-conform` delta
//! oracles check. An entry stores its rule text, so a lookup under a
//! different rule (an edit, a pushdown rewrite) misses and the next
//! store overwrites it.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;
use s2s_netsim::SimDuration;

use crate::extract::Values;
use crate::ledger::SourceLedger;

/// One materialized slice served out of [`SemanticViews`].
#[derive(Debug, Clone)]
pub struct ViewSlice {
    /// The extracted values (aligned per record for multi-record
    /// sources), shared with the store: a lookup copies nothing.
    pub values: Arc<Values>,
    /// The source data version the values reflect.
    pub version: u64,
    /// Simulated instant the slice was last extracted or verified
    /// fresh against the feed.
    pub refreshed_at: SimDuration,
}

#[derive(Debug)]
struct ViewEntry {
    rule: String,
    values: Arc<Values>,
    version: u64,
    refreshed_at: SimDuration,
}

/// Cumulative maintenance counters of a [`SemanticViews`] instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ViewStats {
    /// Slices served without re-extraction (fresh, or cheaply advanced
    /// past untouching events).
    pub hits: u64,
    /// Slices incrementally re-extracted because a feed event touched
    /// their field.
    pub refreshes: u64,
    /// Slices re-extracted from scratch after a feed gap.
    pub full_refreshes: u64,
    /// Change-feed polls issued.
    pub feed_polls: u64,
}

/// The registry of materialized semantic views, shared across queries
/// on one engine. See the module docs for the maintenance protocol —
/// this type only stores slices and counts; the middleware drives the
/// feed polls and re-extraction.
#[derive(Debug, Default)]
pub struct SemanticViews {
    entries: RwLock<BTreeMap<(String, String), ViewEntry>>,
    hits: AtomicU64,
    refreshes: AtomicU64,
    full_refreshes: AtomicU64,
    feed_polls: AtomicU64,
}

impl SemanticViews {
    /// An empty view registry.
    pub fn new() -> Self {
        SemanticViews::default()
    }

    /// The slice materialized for `(source, path)`, provided it was
    /// built by the same `rule` (a different rule means the mapping was
    /// edited or rewritten — the stored values answer the wrong
    /// question).
    pub fn lookup(&self, source: &str, path: &str, rule: &str) -> Option<ViewSlice> {
        let entries = self.entries.read();
        let e = entries.get(&(source.to_string(), path.to_string()))?;
        (e.rule == rule).then(|| ViewSlice {
            values: Arc::clone(&e.values),
            version: e.version,
            refreshed_at: e.refreshed_at,
        })
    }

    /// Stores (or overwrites) the slice for `(source, path)`.
    pub fn store(
        &self,
        source: &str,
        path: &str,
        rule: &str,
        values: Values,
        version: u64,
        now: SimDuration,
    ) {
        self.entries.write().insert(
            (source.to_string(), path.to_string()),
            ViewEntry {
                rule: rule.to_string(),
                values: Arc::new(values),
                version,
                refreshed_at: now,
            },
        );
    }

    /// Advances a slice to `version` without re-extraction — the feed
    /// proved no retained event touched its field. `refreshed_at` moves
    /// to `now`: freshness was just verified against the source.
    pub fn advance(&self, source: &str, path: &str, version: u64, now: SimDuration) {
        if let Some(e) = self.entries.write().get_mut(&(source.to_string(), path.to_string())) {
            e.version = e.version.max(version);
            e.refreshed_at = now;
        }
    }

    /// Drops every slice materialized from `source`, returning how many
    /// were dropped (the mapping-edit path; data mutations never drop
    /// views — they self-heal through the feed).
    pub fn remove_source(&self, source: &str) -> usize {
        let mut entries = self.entries.write();
        let before = entries.len();
        entries.retain(|(s, _), _| s != source);
        before - entries.len()
    }

    /// Drops every slice, returning how many were dropped.
    pub fn clear(&self) -> usize {
        let mut entries = self.entries.write();
        let n = entries.len();
        entries.clear();
        n
    }

    /// Number of materialized slices.
    pub fn len(&self) -> usize {
        self.entries.read().len()
    }

    /// Whether no slice is materialized.
    pub fn is_empty(&self) -> bool {
        self.entries.read().is_empty()
    }

    /// Folds one query's ledger rows, summed, into the cumulative
    /// counters and mirrors them to the metrics registry.
    pub(crate) fn tally(&self, t: &SourceLedger) {
        self.hits.fetch_add(t.view_hits, Ordering::Relaxed);
        self.refreshes.fetch_add(t.view_refreshes, Ordering::Relaxed);
        self.full_refreshes.fetch_add(t.view_full_refreshes, Ordering::Relaxed);
        self.feed_polls.fetch_add(t.feed_polls, Ordering::Relaxed);
        if s2s_obs::enabled() {
            let metrics = s2s_obs::global();
            if t.view_hits > 0 {
                metrics.counter(s2s_obs::names::VIEW_HITS_TOTAL).add(t.view_hits);
                let staleness = t.view_staleness.as_micros();
                metrics.histogram(s2s_obs::names::VIEW_STALENESS_US).observe(staleness);
            }
            if t.view_refreshes > 0 {
                metrics.counter(s2s_obs::names::VIEW_REFRESHES_TOTAL).add(t.view_refreshes);
            }
            if t.view_full_refreshes > 0 {
                let full = t.view_full_refreshes;
                metrics.counter(s2s_obs::names::VIEW_FULL_REFRESHES_TOTAL).add(full);
            }
            if t.feed_polls > 0 {
                metrics.counter(s2s_obs::names::FEED_POLLS_TOTAL).add(t.feed_polls);
            }
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> ViewStats {
        ViewStats {
            hits: self.hits.load(Ordering::Relaxed),
            refreshes: self.refreshes.load(Ordering::Relaxed),
            full_refreshes: self.full_refreshes.load(Ordering::Relaxed),
            feed_polls: self.feed_polls.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_requires_matching_rule() {
        let views = SemanticViews::new();
        views.store("S", "thing.a.p", "SELECT p", Values::from_iter(["1"]), 3, SimDuration::ZERO);
        let slice = views.lookup("S", "thing.a.p", "SELECT p").expect("materialized");
        assert_eq!(*slice.values, ["1"]);
        assert_eq!(slice.version, 3);
        assert!(views.lookup("S", "thing.a.p", "SELECT q").is_none(), "edited rule misses");
        assert!(views.lookup("T", "thing.a.p", "SELECT p").is_none());
    }

    #[test]
    fn advance_moves_version_and_refresh_instant_forward() {
        let views = SemanticViews::new();
        views.store("S", "p", "r", Values::new(), 1, SimDuration::ZERO);
        views.advance("S", "p", 4, SimDuration::from_micros(7));
        let slice = views.lookup("S", "p", "r").unwrap();
        assert_eq!(slice.version, 4);
        assert_eq!(slice.refreshed_at, SimDuration::from_micros(7));
        // Advancing backwards never regresses the version.
        views.advance("S", "p", 2, SimDuration::from_micros(9));
        assert_eq!(views.lookup("S", "p", "r").unwrap().version, 4);
    }

    #[test]
    fn remove_source_is_surgical_and_clear_is_not() {
        let views = SemanticViews::new();
        views.store("A", "p", "r", Values::new(), 1, SimDuration::ZERO);
        views.store("A", "q", "r", Values::new(), 1, SimDuration::ZERO);
        views.store("B", "p", "r", Values::new(), 1, SimDuration::ZERO);
        assert_eq!(views.remove_source("A"), 2);
        assert_eq!(views.len(), 1);
        assert!(views.lookup("B", "p", "r").is_some());
        assert_eq!(views.clear(), 1);
        assert!(views.is_empty());
    }

    #[test]
    fn tally_accumulates() {
        let views = SemanticViews::new();
        let first =
            SourceLedger { view_hits: 2, view_refreshes: 1, feed_polls: 3, ..Default::default() };
        let second = SourceLedger {
            view_hits: 1,
            view_full_refreshes: 1,
            feed_polls: 1,
            ..Default::default()
        };
        views.tally(&first);
        views.tally(&second);
        assert_eq!(
            views.stats(),
            ViewStats { hits: 3, refreshes: 1, full_refreshes: 1, feed_polls: 4 }
        );
    }
}
