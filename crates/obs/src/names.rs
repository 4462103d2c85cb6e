//! Canonical metric names for the engine's hot paths.
//!
//! The registry accepts any name, which makes typos silent: a counter
//! bumped as `s2s_overload_sheds_total` and read as `s2s_overload_shed_total`
//! are two different metrics and nobody notices. The concurrency and
//! caching layers added with the shared engine therefore name their
//! metrics through these constants; emitters and dashboards/audits
//! reference the same symbol.

/// Counter: semantic query-result cache hits.
pub const RESULT_CACHE_HITS_TOTAL: &str = "s2s_result_cache_hits_total";
/// Counter: semantic query-result cache misses, lookups of an answer
/// whose sources have moved past the versions it read included.
pub const RESULT_CACHE_MISSES_TOTAL: &str = "s2s_result_cache_misses_total";
/// Counter: result-cache entries evicted by the LRU capacity bound.
pub const RESULT_CACHE_EVICTIONS_TOTAL: &str = "s2s_result_cache_evictions_total";
/// Counter: result-cache entries dropped by a mapping registration (a
/// new mapping drops all, an edit those that read its source). A data
/// mutation drops nothing: its stale answers count as misses when next
/// looked up.
pub const RESULT_CACHE_INVALIDATIONS_TOTAL: &str = "s2s_result_cache_invalidations_total";

/// Counter: queries answered, whether fresh, replayed or shed.
pub const QUERIES_TOTAL: &str = "s2s_queries_total";
/// Counter: queries answered below completeness 1, shed ones included.
pub const QUERIES_DEGRADED_TOTAL: &str = "s2s_queries_degraded_total";
/// Gauge: the last answered query's completeness (`0` when shed).
pub const QUERY_COMPLETENESS: &str = "s2s_query_completeness";
/// Histogram: every answered query's simulated time, µs (`0` for a
/// replay or a shed query).
pub const QUERY_SIM_US: &str = "s2s_query_sim_us";
/// Histogram: every answered query's wall time, µs.
pub const QUERY_WALL_US: &str = "s2s_query_wall_us";
/// Counter: conjuncts the pushdown planner pushed into sources' rules.
pub const PUSHDOWN_PREDICATES_TOTAL: &str = "s2s_pushdown_predicates_total";
/// Counter: sources the pushdown planner pruned.
pub const PUSHDOWN_PRUNED_SOURCES_TOTAL: &str = "s2s_pushdown_pruned_sources_total";

/// Counter: query-plan cache hits.
pub const PLAN_CACHE_HITS_TOTAL: &str = "s2s_plan_cache_hits_total";
/// Counter: query-plan cache misses.
pub const PLAN_CACHE_MISSES_TOTAL: &str = "s2s_plan_cache_misses_total";
/// Counter: plan-cache entries evicted by the LRU capacity bound.
pub const PLAN_CACHE_EVICTIONS_TOTAL: &str = "s2s_plan_cache_evictions_total";

/// Counter: data mutations applied to registered sources.
pub const SOURCE_MUTATIONS_TOTAL: &str = "s2s_source_mutations_total";

/// Counter: (source, attribute) slices served from a fresh
/// materialized semantic view — no wire exchange needed.
pub const VIEW_HITS_TOTAL: &str = "s2s_view_hits_total";
/// Counter: view slices incrementally re-extracted because the change
/// feed showed their source-side field was touched.
pub const VIEW_REFRESHES_TOTAL: &str = "s2s_view_refreshes_total";
/// Counter: sources whose views fell back to a full refresh (feed gap
/// or mapping change made the delta unsound).
pub const VIEW_FULL_REFRESHES_TOTAL: &str = "s2s_view_full_refreshes_total";
/// Counter: change-feed polls issued against source endpoints.
pub const FEED_POLLS_TOTAL: &str = "s2s_feed_polls_total";
/// Histogram: simulated microseconds between a served view's last
/// refresh and the query that read it (the staleness window).
pub const VIEW_STALENESS_US: &str = "s2s_view_staleness_us";

/// Counter: queries refused by admission control (load shedding).
pub const OVERLOAD_SHED_TOTAL: &str = "s2s_overload_shed_total";
/// Counter: queries (or per-source exchanges) that exhausted their
/// deadline budget and returned degraded.
pub const OVERLOAD_DEADLINE_EXCEEDED_TOTAL: &str = "s2s_overload_deadline_exceeded_total";
/// Counter: hedged replica requests launched against stragglers.
pub const HEDGE_LAUNCHED_TOTAL: &str = "s2s_hedge_launched_total";
/// Counter: hedged requests whose replica reply beat the primary.
/// Invariant: `hedge_wins ≤ hedge_launched`.
pub const HEDGE_WINS_TOTAL: &str = "s2s_hedge_wins_total";
/// Gauge: queries currently waiting in the admission queue.
pub const ADMISSION_QUEUE_DEPTH: &str = "s2s_admission_queue_depth";
/// Gauge: the admission controller's live per-query service-time
/// estimate, microseconds of simulated time (EWMA of completions).
pub const ADMISSION_SERVICE_ESTIMATE_US: &str = "s2s_admission_service_estimate_us";

/// Counter: sources run through the mapping bootstrap pass.
pub const BOOTSTRAP_SOURCES_TOTAL: &str = "s2s_bootstrap_sources_total";
/// Counter: mapping candidates generated by bootstrap.
pub const BOOTSTRAP_CANDIDATES_TOTAL: &str = "s2s_bootstrap_candidates_total";
/// Counter: conflicts surfaced by bootstrap (not auto-registered).
pub const BOOTSTRAP_CONFLICTS_TOTAL: &str = "s2s_bootstrap_conflicts_total";
/// Counter: accepted bootstrap candidates registered as mappings.
pub const BOOTSTRAP_APPLIED_TOTAL: &str = "s2s_bootstrap_applied_total";

/// Gauge name for one tenant's admission backlog.
///
/// Per-tenant series share the `s2s_admission_tenant_backlog_` prefix;
/// the tenant id is embedded in the metric name because the registry
/// is label-free.
pub fn tenant_backlog_gauge(tenant: &str) -> String {
    format!("s2s_admission_tenant_backlog_{tenant}")
}

#[cfg(test)]
mod tests {
    #[test]
    fn names_are_unique_and_prefixed() {
        let all = [
            super::RESULT_CACHE_HITS_TOTAL,
            super::RESULT_CACHE_MISSES_TOTAL,
            super::RESULT_CACHE_EVICTIONS_TOTAL,
            super::RESULT_CACHE_INVALIDATIONS_TOTAL,
            super::PLAN_CACHE_HITS_TOTAL,
            super::PLAN_CACHE_MISSES_TOTAL,
            super::PLAN_CACHE_EVICTIONS_TOTAL,
            super::SOURCE_MUTATIONS_TOTAL,
            super::VIEW_HITS_TOTAL,
            super::VIEW_REFRESHES_TOTAL,
            super::VIEW_FULL_REFRESHES_TOTAL,
            super::FEED_POLLS_TOTAL,
            super::VIEW_STALENESS_US,
            super::OVERLOAD_SHED_TOTAL,
            super::OVERLOAD_DEADLINE_EXCEEDED_TOTAL,
            super::HEDGE_LAUNCHED_TOTAL,
            super::HEDGE_WINS_TOTAL,
            super::ADMISSION_QUEUE_DEPTH,
            super::ADMISSION_SERVICE_ESTIMATE_US,
            super::BOOTSTRAP_SOURCES_TOTAL,
            super::BOOTSTRAP_CANDIDATES_TOTAL,
            super::BOOTSTRAP_CONFLICTS_TOTAL,
            super::BOOTSTRAP_APPLIED_TOTAL,
        ];
        let unique: std::collections::BTreeSet<_> = all.iter().collect();
        assert_eq!(unique.len(), all.len());
        assert!(all.iter().all(|n| n.starts_with("s2s_")));
        assert!(super::tenant_backlog_gauge("acme").starts_with("s2s_"));
        assert_ne!(super::tenant_backlog_gauge("a"), super::tenant_backlog_gauge("b"));
    }
}
