//! Canonical metric names: every metric the workspace emits is one of
//! these constants ([`ALL`]), plus the per-tenant backlog gauges under
//! [`TENANT_BACKLOG_PREFIX`].
//!
//! The registry accepts any name, which makes typos silent: a counter
//! bumped as `s2s_overload_sheds_total` and read as `s2s_overload_shed_total`
//! are two different metrics and nobody notices. Emitters and
//! dashboards/audits therefore reference the same symbol.
//!
//! Two kinds of emitter exist. A per-query figure is folded into the
//! registry once, at the query's one exit (`S2s::finish` in `s2s-core`),
//! from what that exit already holds: the query's stats, its ledger
//! totals (`ledger::total`, named below by their `SourceLedger` field)
//! and its answer. A figure about state shared across queries — cache
//! entries, breakers, admission, source mutations, bootstrap — is
//! counted by that state where it changes. Each constant's doc names
//! the figure it is read from.

/// Counter: semantic query-result cache hits, counted by the cache's
/// LRU on each lookup.
pub const RESULT_CACHE_HITS_TOTAL: &str = "s2s_result_cache_hits_total";
/// Counter: semantic query-result cache misses, lookups of an answer
/// whose sources have moved past the versions it read included;
/// counted by the cache's LRU on each lookup.
pub const RESULT_CACHE_MISSES_TOTAL: &str = "s2s_result_cache_misses_total";
/// Counter: result-cache entries evicted by the LRU capacity bound,
/// counted by the LRU on each insert.
pub const RESULT_CACHE_EVICTIONS_TOTAL: &str = "s2s_result_cache_evictions_total";
/// Counter: result-cache entries dropped by a mapping registration (a
/// new mapping drops all, an edit those that read its source). A data
/// mutation drops nothing: its stale answers count as misses when next
/// looked up. Counted by the cache as it drops them.
pub const RESULT_CACHE_INVALIDATIONS_TOTAL: &str = "s2s_result_cache_invalidations_total";

/// Counter: queries answered, whether fresh, replayed or shed; one per
/// query exit.
pub const QUERIES_TOTAL: &str = "s2s_queries_total";
/// Counter: queries answered below completeness 1, shed ones included;
/// read from `QueryStats::completeness`.
pub const QUERIES_DEGRADED_TOTAL: &str = "s2s_queries_degraded_total";
/// Gauge: the last answered query's `QueryStats::completeness` (`0`
/// when shed).
pub const QUERY_COMPLETENESS: &str = "s2s_query_completeness";
/// Histogram: every answered query's `QueryStats::simulated`, µs (`0`
/// for a replay or a shed query).
pub const QUERY_SIM_US: &str = "s2s_query_sim_us";
/// Histogram: every answered query's wall time, µs, read at its exit.
pub const QUERY_WALL_US: &str = "s2s_query_wall_us";
/// Counter: S2SQL texts the engine's parse stage rejected. A rejected
/// query never reaches the exit, so the stage counts it.
pub const QUERY_PARSE_ERRORS_TOTAL: &str = "s2s_query_parse_errors_total";
/// Counter: conjuncts the pushdown planner pushed into sources' rules;
/// the length of each row's `pushed`, summed.
pub const PUSHDOWN_PREDICATES_TOTAL: &str = "s2s_pushdown_predicates_total";
/// Counter: sources the pushdown planner pruned; rows with `pruned`.
pub const PUSHDOWN_PRUNED_SOURCES_TOTAL: &str = "s2s_pushdown_pruned_sources_total";

/// Counter: extraction tasks of fresh queries, view-served slices
/// included; the ledger's `tasks`.
pub const EXTRACT_TASKS_TOTAL: &str = "s2s_extract_tasks_total";
/// Counter: failed extraction tasks; the ledger's `failed_tasks`.
pub const EXTRACT_FAILED_TASKS_TOTAL: &str = "s2s_extract_failed_tasks_total";
/// Counter: endpoint attempts that reached the wire (retries, failovers
/// and hedges included); the ledger's `attempts`.
pub const NET_CALLS_TOTAL: &str = "s2s_net_calls_total";
/// Counter: on-wire bytes, batch frames and change-feed poll frames;
/// the ledger's `wire_bytes` (a hedge's second leg is not on the row).
pub const NET_BYTES_TOTAL: &str = "s2s_net_bytes_total";
/// Counter: attempts beyond the first per endpoint; the ledger's
/// `retries`.
pub const RETRY_RETRIES_TOTAL: &str = "s2s_retry_retries_total";
/// Histogram: one sample per ledger row that reached the wire
/// (`attempts > 0`): the row's `wire_time`, µs of simulated time —
/// failed attempts and backoff waits included.
pub const SOURCE_EXCHANGE_SIM_US: &str = "s2s_source_exchange_sim_us";
/// Counter: individuals in fresh answers; `InstanceSet::individuals`.
pub const INSTANCES_GENERATED_TOTAL: &str = "s2s_instances_generated_total";
/// Counter: triples in fresh answers, entailments included;
/// `InstanceSet::graph`.
pub const INSTANCE_TRIPLES_TOTAL: &str = "s2s_instance_triples_total";

/// Counter: query-plan cache hits, counted by the cache's LRU.
pub const PLAN_CACHE_HITS_TOTAL: &str = "s2s_plan_cache_hits_total";
/// Counter: query-plan cache misses, counted by the cache's LRU.
pub const PLAN_CACHE_MISSES_TOTAL: &str = "s2s_plan_cache_misses_total";
/// Counter: plan-cache entries evicted by the LRU capacity bound.
pub const PLAN_CACHE_EVICTIONS_TOTAL: &str = "s2s_plan_cache_evictions_total";

/// Counter: data mutations applied to registered sources, counted by
/// `S2s::mutate_source`.
pub const SOURCE_MUTATIONS_TOTAL: &str = "s2s_source_mutations_total";

/// Counter: (source, attribute) slices served from a fresh or
/// cheaply advanced materialized view; the ledger's `view_hits`.
pub const VIEW_HITS_TOTAL: &str = "s2s_view_hits_total";
/// Counter: view slices incrementally re-extracted because the change
/// feed showed their source-side field was touched; the ledger's
/// `view_refreshes`.
pub const VIEW_REFRESHES_TOTAL: &str = "s2s_view_refreshes_total";
/// Counter: view slices re-extracted from scratch (a feed gap made
/// the delta unsound); the ledger's `view_full_refreshes`.
pub const VIEW_FULL_REFRESHES_TOTAL: &str = "s2s_view_full_refreshes_total";
/// Counter: change-feed polls issued against source endpoints; the
/// ledger's `feed_polls`.
pub const FEED_POLLS_TOTAL: &str = "s2s_feed_polls_total";
/// Histogram: one sample per fresh query with a view hit: the
/// ledger's widest `view_staleness`, µs of simulated time.
pub const VIEW_STALENESS_US: &str = "s2s_view_staleness_us";

/// Counter: queries refused by admission control (load shedding); one
/// per shed exit.
pub const OVERLOAD_SHED_TOTAL: &str = "s2s_overload_shed_total";
/// Counter: source exchanges that exhausted the query's deadline
/// budget; the ledger's `deadline_hits`.
pub const OVERLOAD_DEADLINE_EXCEEDED_TOTAL: &str = "s2s_overload_deadline_exceeded_total";
/// Counter: hedged replica requests launched against stragglers; the
/// ledger's `hedges`.
pub const HEDGE_LAUNCHED_TOTAL: &str = "s2s_hedge_launched_total";
/// Counter: hedged requests whose replica reply beat the primary; the
/// ledger's `hedge_wins` (`≤ hedges` on every row).
pub const HEDGE_WINS_TOTAL: &str = "s2s_hedge_wins_total";
/// Gauge: queries waiting in the admission queue, set by the
/// controller whenever the queue changes.
pub const ADMISSION_QUEUE_DEPTH: &str = "s2s_admission_queue_depth";
/// Gauge: the admission controller's live per-query service-time
/// estimate, microseconds of simulated time (EWMA of completions).
pub const ADMISSION_SERVICE_ESTIMATE_US: &str = "s2s_admission_service_estimate_us";

/// Counter: circuit breakers tripped open, counted by the breaker.
pub const BREAKER_OPENED_TOTAL: &str = "s2s_breaker_opened_total";
/// Counter: open breakers whose cooldown passed, admitting a probe.
pub const BREAKER_HALF_OPENED_TOTAL: &str = "s2s_breaker_half_opened_total";
/// Counter: half-open breakers closed by a healthy probe.
pub const BREAKER_CLOSED_TOTAL: &str = "s2s_breaker_closed_total";
/// Counter: calls an open breaker refused, counted by the breaker.
pub const BREAKER_REJECTED_TOTAL: &str = "s2s_breaker_rejected_total";

/// Counter: sources run through the mapping bootstrap pass.
pub const BOOTSTRAP_SOURCES_TOTAL: &str = "s2s_bootstrap_sources_total";
/// Counter: mapping candidates generated by bootstrap.
pub const BOOTSTRAP_CANDIDATES_TOTAL: &str = "s2s_bootstrap_candidates_total";
/// Counter: conflicts surfaced by bootstrap (not auto-registered).
pub const BOOTSTRAP_CONFLICTS_TOTAL: &str = "s2s_bootstrap_conflicts_total";
/// Counter: accepted bootstrap candidates registered as mappings.
pub const BOOTSTRAP_APPLIED_TOTAL: &str = "s2s_bootstrap_applied_total";

/// Every constant above, the one list audits check exports against.
pub const ALL: &[&str] = &[
    RESULT_CACHE_HITS_TOTAL,
    RESULT_CACHE_MISSES_TOTAL,
    RESULT_CACHE_EVICTIONS_TOTAL,
    RESULT_CACHE_INVALIDATIONS_TOTAL,
    QUERIES_TOTAL,
    QUERIES_DEGRADED_TOTAL,
    QUERY_COMPLETENESS,
    QUERY_SIM_US,
    QUERY_WALL_US,
    QUERY_PARSE_ERRORS_TOTAL,
    PUSHDOWN_PREDICATES_TOTAL,
    PUSHDOWN_PRUNED_SOURCES_TOTAL,
    EXTRACT_TASKS_TOTAL,
    EXTRACT_FAILED_TASKS_TOTAL,
    NET_CALLS_TOTAL,
    NET_BYTES_TOTAL,
    RETRY_RETRIES_TOTAL,
    SOURCE_EXCHANGE_SIM_US,
    INSTANCES_GENERATED_TOTAL,
    INSTANCE_TRIPLES_TOTAL,
    PLAN_CACHE_HITS_TOTAL,
    PLAN_CACHE_MISSES_TOTAL,
    PLAN_CACHE_EVICTIONS_TOTAL,
    SOURCE_MUTATIONS_TOTAL,
    VIEW_HITS_TOTAL,
    VIEW_REFRESHES_TOTAL,
    VIEW_FULL_REFRESHES_TOTAL,
    FEED_POLLS_TOTAL,
    VIEW_STALENESS_US,
    OVERLOAD_SHED_TOTAL,
    OVERLOAD_DEADLINE_EXCEEDED_TOTAL,
    HEDGE_LAUNCHED_TOTAL,
    HEDGE_WINS_TOTAL,
    ADMISSION_QUEUE_DEPTH,
    ADMISSION_SERVICE_ESTIMATE_US,
    BREAKER_OPENED_TOTAL,
    BREAKER_HALF_OPENED_TOTAL,
    BREAKER_CLOSED_TOTAL,
    BREAKER_REJECTED_TOTAL,
    BOOTSTRAP_SOURCES_TOTAL,
    BOOTSTRAP_CANDIDATES_TOTAL,
    BOOTSTRAP_CONFLICTS_TOTAL,
    BOOTSTRAP_APPLIED_TOTAL,
];

/// The prefix every per-tenant backlog gauge shares: the registry is
/// label-free, so the tenant id is part of the name.
pub const TENANT_BACKLOG_PREFIX: &str = "s2s_admission_tenant_backlog_";

/// Gauge name for one tenant's admission backlog, set by the
/// controller whenever its queue changes.
pub fn tenant_backlog_gauge(tenant: &str) -> String {
    format!("{TENANT_BACKLOG_PREFIX}{tenant}")
}

#[cfg(test)]
mod tests {
    #[test]
    fn names_are_unique_and_prefixed() {
        let all = super::ALL;
        let unique: std::collections::BTreeSet<_> = all.iter().collect();
        assert_eq!(unique.len(), all.len());
        assert!(all.iter().all(|n| n.starts_with("s2s_")));
        assert!(all.iter().all(|n| !n.starts_with(super::TENANT_BACKLOG_PREFIX)));
        assert!(super::tenant_backlog_gauge("acme").starts_with("s2s_"));
        assert_ne!(super::tenant_backlog_gauge("a"), super::tenant_backlog_gauge("b"));
    }
}
