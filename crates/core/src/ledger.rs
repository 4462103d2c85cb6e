//! The query ledger (DESIGN.md "Query ledger"): one row per source a
//! fresh query read, holding what the query did to that source — the
//! pushdown plan, view maintenance, the attempt ladder and the wire
//! traffic. The middleware creates the rows from the query's extraction
//! schemas, in source-id order; the planner, the view partition and the
//! mediator each write their own fields. Every figure is deterministic
//! (wall time stays on the trace spans), so two seeded runs' ledgers
//! compare with `==`. `total` is the one place a per-source figure
//! becomes a query total.

use s2s_netsim::{BreakerState, SimDuration};

use crate::extract::ExtractionSchema;
use crate::query::{ConditionTree, QueryPlan};

/// What one fresh query did to one source.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SourceLedger {
    /// The source id.
    pub source: String,
    /// Schemas of this source the query answered or failed, whether
    /// extracted or served from a view.
    pub tasks: usize,
    /// Tasks that failed: in the wrapper, or on the wire after retries
    /// and failover.
    pub failed_tasks: usize,
    /// Statements the source's wrapper ran for its extracted tasks:
    /// rules that share one record scope (SQL statements equal but for
    /// their projection, XPaths reading fields of the same records) run
    /// as one.
    pub statements: usize,
    /// Whether the pushdown planner pruned the source: a required
    /// conjunct names a property it does not map, so nothing it could
    /// contribute passes the condition, and it is never dialled.
    pub pruned: bool,
    /// The leaves of the query's condition the source's record
    /// statement was filtered by — those a rule of the source reads —
    /// as positions among them
    /// ([`crate::query::ConditionTree::leaves`]);
    /// [`SourceLedger::pushed_conjuncts`] spells them out.
    pub pushed: Pushed,
    /// Why the source ran unfiltered though the query has a condition;
    /// `None` when it was filtered, pruned, or served whole by views.
    pub unfiltered: Option<Unfiltered>,
    /// Schemas the projection dropped: neither the projection nor the
    /// condition reads their property.
    pub projected_out: usize,
    /// Slices served from a materialized view without re-extraction:
    /// fresh ones, and ones advanced past change events that provably
    /// did not touch their field.
    pub view_hits: u64,
    /// View slices re-extracted because a change event touched their
    /// field.
    pub view_refreshes: u64,
    /// View slices re-extracted from scratch because a feed gap made
    /// the delta unsound.
    pub view_full_refreshes: u64,
    /// Change-feed polls issued against the source: one per version a
    /// stale slice of it was at.
    pub feed_polls: u64,
    /// The widest staleness among the source's view-served slices:
    /// simulated time between a slice's last refresh and this query
    /// reading it.
    pub view_staleness: SimDuration,
    /// Endpoint attempts that reached the wire: every retry, failover
    /// and hedge attempt counts; a call an open breaker refused does
    /// not.
    pub attempts: u64,
    /// Attempts beyond the first per endpoint.
    pub retries: u64,
    /// Switches to a replica endpoint after a real attempt.
    pub failovers: u64,
    /// Calls an open circuit breaker refused before any wire exchange.
    pub breaker_rejections: u64,
    /// State of the primary endpoint's breaker after the exchange
    /// (`None` when breakers are off or the mediator did not run the
    /// source).
    pub breaker_state: Option<BreakerState>,
    /// Exchanges abandoned because the query's deadline budget ran out,
    /// mid-attempt or mid-backoff.
    pub deadline_hits: u64,
    /// Hedged replica requests launched against a straggling primary.
    pub hedges: u64,
    /// Hedges whose replica reply beat the primary
    /// (`hedge_wins <= hedges`).
    pub hedge_wins: u64,
    /// Simulated wire time spent against the source, failed attempts
    /// and backoff waits included.
    pub wire_time: SimDuration,
    /// On-wire bytes: the batch request and response frames of the
    /// source's exchange if its network leg completed, plus the frames
    /// of its change-feed polls.
    pub wire_bytes: u64,
    /// The batch response frame's share of `wire_bytes`.
    pub wire_response_bytes: u64,
}

/// A set of positions among a condition's leaves, the first 64 of
/// them: what a ledger row records of the conjuncts it was filtered by,
/// with no text and no allocation per query.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Pushed(u64);

impl Pushed {
    /// How many positions the set holds.
    pub fn len(&self) -> usize {
        self.0.count_ones() as usize
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.0 == 0
    }

    /// The positions, ascending.
    pub fn iter(&self) -> impl Iterator<Item = usize> {
        let bits = self.0;
        (0..64).filter(move |k| bits >> k & 1 == 1)
    }

    /// The set whose bit `k` holds position `k`.
    pub(crate) fn of(bits: u64) -> Self {
        Pushed(bits)
    }
}

/// Why a source the planner kept ran its record statement unfiltered
/// (DESIGN.md §4j).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unfiltered {
    /// The engine keeps materialized views, which hold a source's
    /// slices whole.
    Views,
    /// The source's rules did not run as one record statement: several
    /// statements, an XQuery, or a rule that failed.
    Statements,
    /// The statement's columns do not line up record by record: a NULL
    /// cell, a record missing or repeating a field, columns of unequal
    /// length, or single- and multi-record rules in one statement.
    Misaligned,
}

impl SourceLedger {
    /// The pushed conjuncts as `plan` states them (`"price < 100"`), in
    /// condition order — for a trace or a test; the row keeps positions.
    pub fn pushed_conjuncts(&self, plan: &QueryPlan) -> Vec<String> {
        let leaves = plan.condition.as_ref().map(ConditionTree::leaves).unwrap_or_default();
        let described = self.pushed.iter().filter_map(|i| leaves.get(i));
        described.map(|c| format!("{} {} {}", c.property.local_name(), c.op(), c.value())).collect()
    }
}

/// One empty row per source of `schemas`, in source-id order.
pub(crate) fn rows(schemas: &[ExtractionSchema]) -> Vec<SourceLedger> {
    let (mut rows, mut at) = (Vec::new(), usize::MAX);
    for s in schemas {
        row(&mut rows, s.mapping.source().as_str(), &mut at);
    }
    rows
}

/// The row of `source`, added in id order when `rows` has none yet;
/// [`seek`] from `at`.
pub(crate) fn row<'a>(
    rows: &'a mut Vec<SourceLedger>,
    source: &str,
    at: &mut usize,
) -> &'a mut SourceLedger {
    let i = seek(rows, source, at).unwrap_or_else(|i| {
        rows.insert(i, SourceLedger { source: source.to_string(), ..SourceLedger::default() });
        i
    });
    &mut rows[i]
}

/// `Ok` with the position of `source`'s row in `rows` (id order), or
/// `Err` with where it belongs. `at`, the position found before, moves
/// to this one; its successor is tried first, as a query's schemas come
/// path by path and a path's mappings in source order. Over 64 shards
/// of three rules a pass of these lookups took ≈ 4.5 µs, against ≈ 22 µs
/// by binary search alone.
pub(crate) fn seek(rows: &[SourceLedger], source: &str, at: &mut usize) -> Result<usize, usize> {
    let next = at.wrapping_add(1);
    let found = match rows.get(next) {
        Some(r) if r.source == source => Ok(next),
        None if next == rows.len() && rows.last().is_none_or(|r| r.source.as_str() < source) => {
            Err(next)
        }
        _ => rows.binary_search_by(|r| r.source.as_str().cmp(source)),
    };
    let (Ok(i) | Err(i)) = found;
    *at = i;
    found
}

/// A query's rows folded: `sum` is one row without a source holding
/// every figure summed (the staleness the widest); `pruned` and
/// `pushed` count the pruned sources and the pushed conjuncts.
#[derive(Debug, Default)]
pub(crate) struct Totals {
    pub sum: SourceLedger,
    pub pruned: u64,
    pub pushed: u64,
}

/// The one fold: every query total of a per-source figure is read here.
pub(crate) fn total(rows: &[SourceLedger]) -> Totals {
    let mut t = Totals::default();
    let s = &mut t.sum;
    for r in rows {
        s.tasks += r.tasks;
        s.failed_tasks += r.failed_tasks;
        s.statements += r.statements;
        t.pruned += u64::from(r.pruned);
        t.pushed += r.pushed.len() as u64;
        s.view_hits += r.view_hits;
        s.view_refreshes += r.view_refreshes;
        s.view_full_refreshes += r.view_full_refreshes;
        s.feed_polls += r.feed_polls;
        s.view_staleness = s.view_staleness.max(r.view_staleness);
        s.attempts += r.attempts;
        s.retries += r.retries;
        s.failovers += r.failovers;
        s.breaker_rejections += r.breaker_rejections;
        s.deadline_hits += r.deadline_hits;
        s.hedges += r.hedges;
        s.hedge_wins += r.hedge_wins;
        s.wire_time += r.wire_time;
        s.wire_bytes += r.wire_bytes;
        s.wire_response_bytes += r.wire_response_bytes;
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_come_in_source_id_order_one_per_source() {
        // The cursor moves forward, back, past the end and onto a row
        // that is not the next.
        let (mut rows, mut at) = (Vec::new(), usize::MAX);
        for id in ["b", "a", "c", "a", "b", "d", "c", "a"] {
            row(&mut rows, id, &mut at).tasks += 1;
        }
        let got: Vec<_> = rows.iter().map(|r| (r.source.as_str(), r.tasks)).collect();
        assert_eq!(got, [("a", 3), ("b", 2), ("c", 2), ("d", 1)]);
    }

    #[test]
    fn the_fold_sums_every_figure_and_keeps_the_widest_staleness() {
        let a = SourceLedger {
            source: "a".into(),
            tasks: 2,
            pushed: Pushed::of(0b101),
            attempts: 3,
            view_staleness: SimDuration::from_micros(5),
            wire_bytes: 10,
            ..SourceLedger::default()
        };
        let b = SourceLedger {
            source: "b".into(),
            tasks: 1,
            pruned: true,
            attempts: 1,
            view_staleness: SimDuration::from_micros(2),
            wire_bytes: 4,
            ..SourceLedger::default()
        };
        let t = total(&[a, b]);
        assert_eq!((t.sum.tasks, t.pruned, t.pushed), (3, 1, 2));
        assert_eq!((t.sum.attempts, t.sum.wire_bytes), (4, 14));
        assert_eq!(t.sum.view_staleness, SimDuration::from_micros(5));
    }
}
