//! Materialized semantic views: one `(source, attribute path)` slice —
//! the values a mapping's rule extracted — stamped with the source
//! version it reflects, kept current against the source's change feed
//! (DESIGN.md §4k). A query calls the views twice. Before extraction,
//! `SemanticViews::partition` serves every slice it can: a current
//! one is served (a **hit**); a stale one whose retained events name no
//! field the rule reads (the source kind's wrapper computes the read
//! set from the compiled rule; a rule with an unknowable one, or an
//! event naming no field, touches everything) is advanced without
//! re-extraction (still a hit); otherwise the slice is left to extract
//! (a **refresh**), from scratch after a feed gap (a **full refresh**).
//! After extraction, `SemanticViews::store` materializes what was
//! extracted at the versions the query read. Views therefore never
//! serve values a recompute would not produce — what the `s2s-conform`
//! delta oracles check. An entry stores its rule text, so a lookup
//! under a different rule (an edit) misses and the next store overwrites
//! it; a column read through a filter holds part of a slice and is never
//! stored. The query's ledger rows are the only account of what the
//! views did.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use parking_lot::RwLock;
use s2s_netsim::{ChangeEvent, SimDuration};
use s2s_owl::AttributePath;

use crate::engine::DependencySet;
use crate::extract::{AttributeResult, ExtractionSchema, Values};
use crate::ledger::{self, SourceLedger};
use crate::source::{SourceId, SourceRegistry};

#[derive(Debug)]
struct ViewEntry {
    rule: String,
    /// Shared with the slices served from it: a lookup copies nothing.
    values: Arc<Values>,
    /// The source data version the values reflect.
    version: u64,
    /// Simulated instant the slice was last extracted or verified
    /// fresh against the feed.
    refreshed_at: SimDuration,
}

/// The registry of materialized semantic views, shared across queries
/// on one engine: per source, its slices by attribute path.
#[derive(Debug, Default)]
pub(crate) struct SemanticViews {
    entries: RwLock<BTreeMap<String, BTreeMap<AttributePath, ViewEntry>>>,
}

impl SemanticViews {
    /// Splits `schemas` into the slices the views serve (returned as
    /// results) and the schemas left to extract, at simulated instant
    /// `now`. `deps` holds the versions the query reads, under the
    /// registry lock `registry` stands for. Writes each source's row
    /// of `rows`: tasks served, view hits, refreshes, full refreshes,
    /// feed polls with their wire bytes, and the widest staleness.
    pub(crate) fn partition(
        &self,
        registry: &SourceRegistry,
        schemas: Vec<ExtractionSchema>,
        deps: &DependencySet,
        rows: &mut Vec<SourceLedger>,
        now: SimDuration,
    ) -> (Vec<ExtractionSchema>, Vec<AttributeResult>) {
        let mut served = Vec::new();
        // One poll per distinct (source, since) per query: slices of the
        // same source refreshed at the same version share the frames.
        // `None` memoizes a feed gap — the delta is unsound and only a
        // full re-extract is.
        let mut polls: HashMap<(String, u64), Option<Vec<ChangeEvent>>> = HashMap::new();
        let (mut extract, mut at) = (Vec::new(), usize::MAX);
        for s in schemas {
            let sid = s.mapping.source();
            let row = ledger::row(rows, sid.as_str(), &mut at);
            let current = deps.version_of(sid.as_str()).unwrap_or(0);
            let Some((values, version, refreshed_at)) = self.slice(&s) else {
                extract.push(s);
                continue;
            };
            if version < current {
                let key = (sid.as_str().to_string(), version);
                let events = polls.entry(key).or_insert_with(|| poll(registry, sid, version, row));
                let Some(events) = events else {
                    row.view_full_refreshes += 1;
                    extract.push(s);
                    continue;
                };
                let touched = registry.get(sid).is_none_or(|src| {
                    crate::wrapper::touched_by(src.connection(), &s.mapping, events)
                });
                if touched {
                    row.view_refreshes += 1;
                    extract.push(s);
                    continue;
                }
                self.advance(&s, current, now);
            } else {
                row.view_staleness = row.view_staleness.max(now.saturating_sub(refreshed_at));
            }
            row.tasks += 1;
            row.view_hits += 1;
            served.push(AttributeResult {
                mapping: s.mapping,
                // The report owns its columns; the store keeps serving
                // this one.
                values: Values::clone(&values),
                elapsed: SimDuration::ZERO,
            });
        }
        (extract, served)
    }

    /// Materializes every extracted slice of `results` at the version
    /// the query read its source at (`deps`), refreshed at `now`; a
    /// filtered column ([`Values::records`]) is not a slice.
    pub(crate) fn store(
        &self,
        results: &[AttributeResult],
        deps: &DependencySet,
        now: SimDuration,
    ) {
        if results.is_empty() {
            return;
        }
        let mut entries = self.entries.write();
        for r in results.iter().filter(|r| r.values.records().is_none()) {
            let sid = r.mapping.source().as_str();
            let entry = ViewEntry {
                rule: r.mapping.rule().text().to_string(),
                values: Arc::new(r.values.clone()),
                version: deps.version_of(sid).unwrap_or(0),
                refreshed_at: now,
            };
            // Keys are built only for a slice not materialized yet.
            let slices = match entries.get_mut(sid) {
                Some(slices) => slices,
                None => entries.entry(sid.to_string()).or_default(),
            };
            match slices.get_mut(r.mapping.path()) {
                Some(e) => *e = entry,
                None => _ = slices.insert(r.mapping.path().clone(), entry),
            }
        }
    }

    /// Drops every slice materialized from `source` (the mapping-edit
    /// path; data mutations never drop views — they self-heal through
    /// the feed).
    pub(crate) fn remove_source(&self, source: &str) {
        self.entries.write().remove(source);
    }

    /// The values, version and refresh instant of the slice
    /// materialized for `schema`, provided it was built by the same
    /// rule (a different rule means the mapping was edited or
    /// rewritten — the stored values answer the wrong question).
    fn slice(&self, schema: &ExtractionSchema) -> Option<(Arc<Values>, u64, SimDuration)> {
        let m = &schema.mapping;
        let entries = self.entries.read();
        let e = entries.get(m.source().as_str())?.get(m.path())?;
        (e.rule == m.rule().text()).then(|| (Arc::clone(&e.values), e.version, e.refreshed_at))
    }

    /// Advances the slice of `schema` to `version` without
    /// re-extraction — the feed proved no retained event touched its
    /// field. The refresh instant moves to `now`: freshness was just
    /// verified against the source.
    fn advance(&self, schema: &ExtractionSchema, version: u64, now: SimDuration) {
        let m = &schema.mapping;
        let mut entries = self.entries.write();
        if let Some(e) = entries.get_mut(m.source().as_str()).and_then(|s| s.get_mut(m.path())) {
            e.version = e.version.max(version);
            e.refreshed_at = now;
        }
    }
}

/// Polls `source`'s feed for the events after version `since`, charging
/// the poll and its frames to the source's row; `None` is a feed gap.
fn poll(
    registry: &SourceRegistry,
    source: &SourceId,
    since: u64,
    row: &mut SourceLedger,
) -> Option<Vec<ChangeEvent>> {
    row.feed_polls += 1;
    let events = registry.poll_changes(source, since).ok()?.ok()?;
    row.wire_bytes += s2s_netsim::feed::poll_exchange_size(&events) as u64;
    Some(events)
}
