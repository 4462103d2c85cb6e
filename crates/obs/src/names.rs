//! Canonical metric names for the engine's hot paths.
//!
//! The registry accepts any name, which makes typos silent: a counter
//! bumped as `s2s_pool_job_total` and read as `s2s_pool_jobs_total`
//! are two different metrics and nobody notices. The concurrency and
//! caching layers added with the shared engine therefore name their
//! metrics through these constants; emitters and dashboards/audits
//! reference the same symbol.

/// Gauge: worker threads of the most recently constructed pool.
pub const POOL_WORKERS: &str = "s2s_pool_workers";
/// Gauge: jobs currently queued or executing on the pool.
pub const POOL_QUEUE_DEPTH: &str = "s2s_pool_queue_depth";
/// Histogram: wall-clock microseconds a job waited in the pool queue.
pub const POOL_QUEUE_WAIT_US: &str = "s2s_pool_queue_wait_us";
/// Counter: jobs submitted to the pool.
pub const POOL_JOBS_TOTAL: &str = "s2s_pool_jobs_total";

/// Counter: semantic query-result cache hits.
pub const RESULT_CACHE_HITS_TOTAL: &str = "s2s_result_cache_hits_total";
/// Counter: semantic query-result cache misses (expiries included).
pub const RESULT_CACHE_MISSES_TOTAL: &str = "s2s_result_cache_misses_total";
/// Counter: result-cache entries evicted by the LRU capacity bound.
pub const RESULT_CACHE_EVICTIONS_TOTAL: &str = "s2s_result_cache_evictions_total";
/// Counter: result-cache entries dropped by mutation invalidation.
pub const RESULT_CACHE_INVALIDATIONS_TOTAL: &str = "s2s_result_cache_invalidations_total";

/// Counter: query-plan cache hits.
pub const PLAN_CACHE_HITS_TOTAL: &str = "s2s_plan_cache_hits_total";
/// Counter: query-plan cache misses.
pub const PLAN_CACHE_MISSES_TOTAL: &str = "s2s_plan_cache_misses_total";
/// Counter: plan-cache entries evicted by the LRU capacity bound.
pub const PLAN_CACHE_EVICTIONS_TOTAL: &str = "s2s_plan_cache_evictions_total";

/// Counter: data mutations applied to registered sources.
pub const SOURCE_MUTATIONS_TOTAL: &str = "s2s_source_mutations_total";
/// Counter: entries dropped by explicit full-cache invalidation
/// (`S2s::invalidate_cache`), extraction + result entries combined.
/// A high rate signals over-invalidation relative to the surgical path.
pub const CACHE_INVALIDATED_ENTRIES_TOTAL: &str = "s2s_cache_invalidated_entries_total";

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

/// Counter: compiled-rule-cache entries evicted by the LRU bound.
pub const RULE_CACHE_EVICTIONS_TOTAL: &str = "s2s_rule_cache_evictions_total";

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

/// Gauge: tasks currently live (spawned, not yet done) on the reactor.
pub const REACTOR_IN_FLIGHT: &str = "s2s_reactor_in_flight";
/// Gauge: timers pending across all reactor shards.
pub const REACTOR_TIMER_DEPTH: &str = "s2s_reactor_timer_depth";
/// Counter: timer events fired by the reactor.
pub const REACTOR_EVENTS_TOTAL: &str = "s2s_reactor_events_total";
/// Counter: tasks spawned onto the reactor.
pub const REACTOR_TASKS_TOTAL: &str = "s2s_reactor_tasks_total";
/// Gauge: shard balance of the last completed reactor run — events
/// fired on the busiest shard divided by the per-shard mean (1.0 =
/// perfectly balanced).
pub const REACTOR_SHARD_BALANCE: &str = "s2s_reactor_shard_balance";

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
            super::POOL_WORKERS,
            super::POOL_QUEUE_DEPTH,
            super::POOL_QUEUE_WAIT_US,
            super::POOL_JOBS_TOTAL,
            super::RESULT_CACHE_HITS_TOTAL,
            super::RESULT_CACHE_MISSES_TOTAL,
            super::RESULT_CACHE_EVICTIONS_TOTAL,
            super::RESULT_CACHE_INVALIDATIONS_TOTAL,
            super::PLAN_CACHE_HITS_TOTAL,
            super::PLAN_CACHE_MISSES_TOTAL,
            super::PLAN_CACHE_EVICTIONS_TOTAL,
            super::SOURCE_MUTATIONS_TOTAL,
            super::CACHE_INVALIDATED_ENTRIES_TOTAL,
            super::VIEW_HITS_TOTAL,
            super::VIEW_REFRESHES_TOTAL,
            super::VIEW_FULL_REFRESHES_TOTAL,
            super::FEED_POLLS_TOTAL,
            super::VIEW_STALENESS_US,
            super::RULE_CACHE_EVICTIONS_TOTAL,
            super::OVERLOAD_SHED_TOTAL,
            super::OVERLOAD_DEADLINE_EXCEEDED_TOTAL,
            super::HEDGE_LAUNCHED_TOTAL,
            super::HEDGE_WINS_TOTAL,
            super::ADMISSION_QUEUE_DEPTH,
            super::ADMISSION_SERVICE_ESTIMATE_US,
            super::REACTOR_IN_FLIGHT,
            super::REACTOR_TIMER_DEPTH,
            super::REACTOR_EVENTS_TOTAL,
            super::REACTOR_TASKS_TOTAL,
            super::REACTOR_SHARD_BALANCE,
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
