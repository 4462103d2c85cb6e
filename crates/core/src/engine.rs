//! The resident engine's query-level caches.
//!
//! The paper's mediator handles one query at a time; a resident,
//! concurrently shared [`crate::middleware::S2s`] adds two cache layers
//! *above* the materialized views and the compiled-rule cache:
//!
//! * [`PlanCache`] — memoizes the parse/validate/plan front half of
//!   query handling, keyed on [`crate::query::normalize`]d S2SQL text.
//!   LRU-bounded; each entry carries a [`DependencySet`] naming the
//!   sources its class was mapped to at plan time, and a mapping edit
//!   drops exactly the plans that named the edited source. (Plans are
//!   derived from the immutable ontology plus the query text alone, so
//!   the drop is a bounded hygiene measure, not a correctness
//!   requirement — a re-derived plan is always identical.)
//! * [`QueryResultCache`] — memoizes whole query answers (the
//!   [`InstanceSet`] plus the stats of the run that produced it),
//!   same normalized key, LRU + optional TTL in *simulated* time.
//!   Invalidation is **dependency-tracked**: each entry records the
//!   `(source, version)` set the producing run read, a data mutation or
//!   mapping edit drops only the entries whose dependency set
//!   intersects the change, and admission re-checks the recorded
//!   versions against a per-source invalidation floor so a query that
//!   raced a mutation can never install a stale answer. Registering a
//!   *new* source or attribute still clears wholesale — cached answers
//!   may be missing data the newcomer would have contributed, which no
//!   per-entry dependency set can see. Only complete, failure-free
//!   answers are admitted, so a degraded result is never replayed after
//!   the sources recover.
//!
//! Both caches key on the normalized text rather than the parsed query
//! so a hit skips the parser entirely; normalization is injective with
//! respect to the parser's token stream, so two queries share a key
//! only if the parser cannot tell them apart.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;
use s2s_netsim::SimDuration;

use crate::instance::InstanceSet;
use crate::middleware::QueryStats;
use crate::query::QueryPlan;

/// Hit/miss/eviction counters, shared by every cache of the engine
/// (plan, result, compiled-rule).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries dropped by the LRU capacity bound.
    pub evictions: u64,
}

/// Removes the entry with the smallest recency stamp. O(n) scan — the
/// caches are small (thousands of entries) and eviction only runs at
/// capacity, so a heap is not worth the bookkeeping.
pub(crate) fn evict_lru<K, V>(
    entries: &mut HashMap<K, V>,
    stamp_of: impl Fn(&V) -> &AtomicU64,
) -> Option<K>
where
    K: Clone + Eq + std::hash::Hash,
{
    let victim = entries
        .iter()
        .min_by_key(|(_, v)| stamp_of(v).load(Ordering::Relaxed))
        .map(|(k, _)| k.clone())?;
    entries.remove(&victim);
    Some(victim)
}

/// The `(source, version)` dependencies a cached artifact read,
/// captured under the registry read lock of the producing run.
///
/// Surgical invalidation intersects a mutation with these sets: an
/// entry is dropped only if it depends on the mutated source at a
/// version older than the mutation's.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DependencySet {
    sources: BTreeMap<String, u64>,
}

impl DependencySet {
    /// An empty dependency set (depends on nothing; never dropped by
    /// targeted invalidation).
    pub fn new() -> Self {
        DependencySet::default()
    }

    /// Records that the artifact read `source` at data `version`.
    /// Re-recording keeps the *older* version: if a run somehow saw two
    /// versions, the entry must be dropped by any mutation after the
    /// first.
    pub fn record(&mut self, source: &str, version: u64) {
        self.sources
            .entry(source.to_string())
            .and_modify(|v| *v = (*v).min(version))
            .or_insert(version);
    }

    /// Whether the artifact read this source at all.
    pub fn depends_on(&self, source: &str) -> bool {
        self.sources.contains_key(source)
    }

    /// The version the artifact read this source at, if it did.
    pub fn version_of(&self, source: &str) -> Option<u64> {
        self.sources.get(source).copied()
    }

    /// Iterates the `(source, version)` pairs in source order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.sources.iter().map(|(s, v)| (s.as_str(), *v))
    }

    /// Number of sources depended on.
    pub fn len(&self) -> usize {
        self.sources.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.sources.is_empty()
    }
}

#[derive(Debug)]
struct PlanEntry {
    plan: Arc<QueryPlan>,
    deps: DependencySet,
    stamp: AtomicU64,
}

/// An LRU-bounded memo of validated query plans, keyed on normalized
/// S2SQL text. Parse/semantic errors are never cached: a bad query
/// re-reports its error each time.
#[derive(Debug)]
pub struct PlanCache {
    entries: RwLock<HashMap<String, PlanEntry>>,
    capacity: usize,
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    invalidations: AtomicU64,
}

impl Default for PlanCache {
    fn default() -> Self {
        PlanCache::new()
    }
}

impl PlanCache {
    /// Default LRU capacity (distinct normalized query texts).
    pub const DEFAULT_CAPACITY: usize = 256;

    /// An empty cache with the default capacity.
    pub fn new() -> Self {
        PlanCache::with_capacity(Self::DEFAULT_CAPACITY)
    }

    /// An empty cache holding at most `capacity` plans (min 1).
    pub fn with_capacity(capacity: usize) -> Self {
        PlanCache {
            entries: RwLock::new(HashMap::new()),
            capacity: capacity.max(1),
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
        }
    }

    /// Looks up the plan for a normalized query text.
    pub fn get(&self, key: &str) -> Option<Arc<QueryPlan>> {
        let hit = {
            let entries = self.entries.read();
            entries.get(key).map(|e| {
                e.stamp.store(self.tick.fetch_add(1, Ordering::Relaxed) + 1, Ordering::Relaxed);
                Arc::clone(&e.plan)
            })
        };
        match &hit {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        if s2s_obs::enabled() {
            let name = if hit.is_some() {
                s2s_obs::names::PLAN_CACHE_HITS_TOTAL
            } else {
                s2s_obs::names::PLAN_CACHE_MISSES_TOTAL
            };
            s2s_obs::global().counter(name).inc();
        }
        hit
    }

    /// Stores a plan with no recorded dependencies (never dropped by
    /// targeted invalidation), evicting the least recently used entry
    /// at capacity.
    pub fn insert(&self, key: String, plan: Arc<QueryPlan>) {
        self.insert_with_deps(key, plan, DependencySet::new());
    }

    /// Stores a plan together with the sources its class was mapped to
    /// at plan time, evicting the least recently used entry at
    /// capacity.
    pub fn insert_with_deps(&self, key: String, plan: Arc<QueryPlan>, deps: DependencySet) {
        let stamp = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
        let mut entries = self.entries.write();
        if !entries.contains_key(&key) && entries.len() >= self.capacity {
            evict_lru(&mut entries, |e: &PlanEntry| &e.stamp);
            self.evictions.fetch_add(1, Ordering::Relaxed);
            if s2s_obs::enabled() {
                s2s_obs::global().counter(s2s_obs::names::PLAN_CACHE_EVICTIONS_TOTAL).inc();
            }
        }
        entries.insert(key, PlanEntry { plan, deps, stamp: AtomicU64::new(stamp) });
    }

    /// Drops every plan whose dependency set names `source`, returning
    /// how many were dropped. Called when a mapping edit touches the
    /// source; plans that never read it survive.
    pub fn invalidate_source(&self, source: &str) -> usize {
        let dropped = {
            let mut entries = self.entries.write();
            let before = entries.len();
            entries.retain(|_, e| !e.deps.depends_on(source));
            before - entries.len()
        };
        self.invalidations.fetch_add(dropped as u64, Ordering::Relaxed);
        if dropped > 0 && s2s_obs::enabled() {
            s2s_obs::global()
                .counter(s2s_obs::names::PLAN_CACHE_INVALIDATIONS_TOTAL)
                .add(dropped as u64);
        }
        dropped
    }

    /// Entries dropped by targeted invalidation (distinct from LRU
    /// evictions).
    pub fn invalidations(&self) -> u64 {
        self.invalidations.load(Ordering::Relaxed)
    }

    /// Number of cached plans.
    pub fn len(&self) -> usize {
        self.entries.read().len()
    }

    /// Whether the cache holds no plans.
    pub fn is_empty(&self) -> bool {
        self.entries.read().is_empty()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

/// Sizing and freshness policy for a [`QueryResultCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResultCacheConfig {
    /// Maximum cached answers (min 1).
    pub capacity: usize,
    /// Time-to-live in *simulated* time, measured against the engine's
    /// resilience clock; `None` disables expiry (mutation invalidation
    /// still applies).
    pub ttl: Option<SimDuration>,
}

impl Default for ResultCacheConfig {
    fn default() -> Self {
        ResultCacheConfig { capacity: 128, ttl: None }
    }
}

/// A cache hit: the answer plus the provenance of the run that
/// produced it.
#[derive(Debug, Clone)]
pub struct CachedResult {
    /// The plan of the original run.
    pub plan: Arc<QueryPlan>,
    /// The answer of the original run.
    pub instances: Arc<InstanceSet>,
    /// The stats of the original (cache-miss) run, so a hit can report
    /// the completeness and task shape of the answer it replays.
    pub origin: QueryStats,
}

#[derive(Debug)]
struct ResultEntry {
    plan: Arc<QueryPlan>,
    instances: Arc<InstanceSet>,
    origin: QueryStats,
    deps: DependencySet,
    inserted_at: SimDuration,
    stamp: AtomicU64,
}

/// Entries plus the per-source invalidation floor, guarded by one lock
/// so admission checks and invalidations are atomic with respect to
/// each other (the floor is what makes the admission-time version check
/// race-free: a mutation first raises the floor, then drops entries;
/// an insert whose dependencies predate the floor is refused even if it
/// lands after the drop).
#[derive(Debug, Default)]
struct ResultState {
    entries: HashMap<String, ResultEntry>,
    /// Highest mutation version seen per source: inserts that read an
    /// older version of the source are stale and refused.
    floors: HashMap<String, u64>,
}

/// An LRU + TTL memo of whole query answers, keyed on normalized S2SQL
/// text. See the module docs for the admission and invalidation rules.
#[derive(Debug)]
pub struct QueryResultCache {
    state: RwLock<ResultState>,
    config: ResultCacheConfig,
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    invalidations: AtomicU64,
}

impl Default for QueryResultCache {
    fn default() -> Self {
        QueryResultCache::new(ResultCacheConfig::default())
    }
}

impl QueryResultCache {
    /// An empty cache with the given policy.
    pub fn new(config: ResultCacheConfig) -> Self {
        QueryResultCache {
            state: RwLock::new(ResultState::default()),
            config: ResultCacheConfig { capacity: config.capacity.max(1), ..config },
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
        }
    }

    /// The active policy.
    pub fn config(&self) -> ResultCacheConfig {
        self.config
    }

    /// Looks up the cached answer for a normalized query text at
    /// simulated instant `now`. An entry past its TTL is dropped and
    /// counted as a miss.
    pub fn get(&self, key: &str, now: SimDuration) -> Option<CachedResult> {
        let (hit, expired) = {
            let state = self.state.read();
            match state.entries.get(key) {
                Some(e) if self.fresh(e, now) => {
                    e.stamp.store(self.tick.fetch_add(1, Ordering::Relaxed) + 1, Ordering::Relaxed);
                    (
                        Some(CachedResult {
                            plan: Arc::clone(&e.plan),
                            instances: Arc::clone(&e.instances),
                            origin: e.origin,
                        }),
                        false,
                    )
                }
                Some(_) => (None, true),
                None => (None, false),
            }
        };
        if expired {
            // Re-check under the write lock: a racing refresh may have
            // replaced the entry with a fresh one.
            let mut state = self.state.write();
            if state.entries.get(key).is_some_and(|e| !self.fresh(e, now)) {
                state.entries.remove(key);
            }
        }
        match &hit {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        if s2s_obs::enabled() {
            let name = if hit.is_some() {
                s2s_obs::names::RESULT_CACHE_HITS_TOTAL
            } else {
                s2s_obs::names::RESULT_CACHE_MISSES_TOTAL
            };
            s2s_obs::global().counter(name).inc();
        }
        hit
    }

    fn fresh(&self, e: &ResultEntry, now: SimDuration) -> bool {
        match self.config.ttl {
            Some(ttl) => now.saturating_sub(e.inserted_at) < ttl,
            None => true,
        }
    }

    /// Stores an answer produced at simulated instant `now` together
    /// with the `(source, version)` dependencies the producing run
    /// read, evicting the least recently used entry at capacity. The
    /// caller enforces answer-quality admission (complete, failure-free
    /// answers only); *this* method enforces freshness admission: if
    /// any recorded dependency predates the per-source invalidation
    /// floor — a mutation landed while the query was in flight — the
    /// stale answer is refused and `false` is returned.
    pub fn insert(
        &self,
        key: String,
        plan: Arc<QueryPlan>,
        instances: Arc<InstanceSet>,
        origin: QueryStats,
        deps: DependencySet,
        now: SimDuration,
    ) -> bool {
        let stamp = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
        let mut state = self.state.write();
        let stale = deps
            .iter()
            .any(|(source, version)| state.floors.get(source).is_some_and(|f| version < *f));
        if stale {
            return false;
        }
        if !state.entries.contains_key(&key) && state.entries.len() >= self.config.capacity {
            evict_lru(&mut state.entries, |e: &ResultEntry| &e.stamp);
            self.evictions.fetch_add(1, Ordering::Relaxed);
            if s2s_obs::enabled() {
                s2s_obs::global().counter(s2s_obs::names::RESULT_CACHE_EVICTIONS_TOTAL).inc();
            }
        }
        state.entries.insert(
            key,
            ResultEntry {
                plan,
                instances,
                origin,
                deps,
                inserted_at: now,
                stamp: AtomicU64::new(stamp),
            },
        );
        true
    }

    /// Drops every cached answer — the fallback for mutations whose
    /// blast radius no dependency set can bound (registering a *new*
    /// source or attribute: existing answers may be missing data the
    /// newcomer would have contributed).
    pub fn invalidate_all(&self) {
        let dropped = {
            let mut state = self.state.write();
            let n = state.entries.len();
            state.entries.clear();
            n as u64
        };
        self.invalidations.fetch_add(dropped, Ordering::Relaxed);
        if dropped > 0 && s2s_obs::enabled() {
            s2s_obs::global()
                .counter(s2s_obs::names::RESULT_CACHE_INVALIDATIONS_TOTAL)
                .add(dropped);
        }
    }

    /// Surgical invalidation for a mutation of `source` producing data
    /// `version`: raises the source's admission floor to `version`,
    /// then drops exactly the entries whose dependency set read the
    /// source at an older version. Entries that never read the source
    /// replay untouched. Returns how many entries were dropped.
    pub fn invalidate_source(&self, source: &str, version: u64) -> usize {
        let dropped = {
            let mut state = self.state.write();
            let floor = state.floors.entry(source.to_string()).or_insert(0);
            *floor = (*floor).max(version);
            let before = state.entries.len();
            state.entries.retain(|_, e| e.deps.version_of(source).is_none_or(|v| v >= version));
            before - state.entries.len()
        };
        self.invalidations.fetch_add(dropped as u64, Ordering::Relaxed);
        if dropped > 0 && s2s_obs::enabled() {
            s2s_obs::global()
                .counter(s2s_obs::names::RESULT_CACHE_INVALIDATIONS_TOTAL)
                .add(dropped as u64);
        }
        dropped
    }

    /// Drops every entry that read `source` at *any* version, without
    /// raising the admission floor — the mapping-edit path. The data
    /// version is unchanged (nothing at the source moved), but answers
    /// built under the displaced rule answer the wrong question.
    /// Registration holds `&mut S2s`, so no old-rule query can be in
    /// flight to race the drop. Returns how many entries were dropped.
    pub fn invalidate_dependents(&self, source: &str) -> usize {
        let dropped = {
            let mut state = self.state.write();
            let before = state.entries.len();
            state.entries.retain(|_, e| !e.deps.depends_on(source));
            before - state.entries.len()
        };
        self.invalidations.fetch_add(dropped as u64, Ordering::Relaxed);
        if dropped > 0 && s2s_obs::enabled() {
            s2s_obs::global()
                .counter(s2s_obs::names::RESULT_CACHE_INVALIDATIONS_TOTAL)
                .add(dropped as u64);
        }
        dropped
    }

    /// Number of cached answers.
    pub fn len(&self) -> usize {
        self.state.read().entries.len()
    }

    /// Whether the cache holds no answers.
    pub fn is_empty(&self) -> bool {
        self.state.read().entries.is_empty()
    }

    /// Counter snapshot (hits, misses, LRU evictions).
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    /// Entries dropped by mutation invalidation (distinct from LRU
    /// evictions).
    pub fn invalidations(&self) -> u64 {
        self.invalidations.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query;
    use s2s_owl::Ontology;
    use s2s_rdf::Graph;

    fn plan_of(text: &str) -> Arc<QueryPlan> {
        let onto = Ontology::builder("http://example.org/schema#")
            .class("Watch", None)
            .unwrap()
            .datatype_property("price", "Watch", s2s_rdf::vocab::xsd::DECIMAL)
            .unwrap()
            .build()
            .unwrap();
        Arc::new(query::plan(&query::parse(text).unwrap(), &onto).unwrap())
    }

    fn answer() -> Arc<InstanceSet> {
        Arc::new(InstanceSet {
            graph: Graph::new(),
            individuals: Vec::new(),
            errors: Vec::new(),
            completeness: 1.0,
            round_trips: 0,
        })
    }

    #[test]
    fn plan_cache_hits_and_evicts() {
        let cache = PlanCache::with_capacity(2);
        assert!(cache.get("SELECT watch").is_none());
        cache.insert("SELECT watch".into(), plan_of("SELECT watch"));
        assert!(cache.get("SELECT watch").is_some());
        cache.insert("SELECT watch WHERE price < 10".into(), plan_of("SELECT watch"));
        // Touch the first so the second is the LRU victim.
        assert!(cache.get("SELECT watch").is_some());
        cache.insert("SELECT watch WHERE price < 20".into(), plan_of("SELECT watch"));
        assert_eq!(cache.len(), 2);
        assert!(cache.get("SELECT watch WHERE price < 10").is_none());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn result_cache_ttl_expires_in_sim_time() {
        let cache = QueryResultCache::new(ResultCacheConfig {
            capacity: 8,
            ttl: Some(SimDuration::from_millis(100)),
        });
        let key = "SELECT watch";
        cache.insert(
            key.into(),
            plan_of(key),
            answer(),
            QueryStats::default(),
            DependencySet::new(),
            SimDuration::from_millis(10),
        );
        assert!(cache.get(key, SimDuration::from_millis(50)).is_some());
        // 10 + 100 = 110: expired, dropped, counted as a miss.
        assert!(cache.get(key, SimDuration::from_millis(110)).is_none());
        assert!(cache.is_empty());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn result_cache_invalidation_counts_entries() {
        let cache = QueryResultCache::new(ResultCacheConfig::default());
        for text in ["SELECT a", "SELECT b", "SELECT c"] {
            cache.insert(
                text.into(),
                plan_of("SELECT watch"),
                answer(),
                QueryStats::default(),
                DependencySet::new(),
                SimDuration::ZERO,
            );
        }
        cache.invalidate_all();
        assert!(cache.is_empty());
        assert_eq!(cache.invalidations(), 3);
        // Idempotent: an empty invalidation adds nothing.
        cache.invalidate_all();
        assert_eq!(cache.invalidations(), 3);
    }

    #[test]
    fn result_cache_lru_evicts_at_capacity() {
        let cache = QueryResultCache::new(ResultCacheConfig { capacity: 2, ttl: None });
        let now = SimDuration::ZERO;
        let deps = DependencySet::new;
        cache.insert(
            "a".into(),
            plan_of("SELECT watch"),
            answer(),
            QueryStats::default(),
            deps(),
            now,
        );
        cache.insert(
            "b".into(),
            plan_of("SELECT watch"),
            answer(),
            QueryStats::default(),
            deps(),
            now,
        );
        assert!(cache.get("a", now).is_some());
        cache.insert(
            "c".into(),
            plan_of("SELECT watch"),
            answer(),
            QueryStats::default(),
            deps(),
            now,
        );
        assert_eq!(cache.len(), 2);
        assert!(cache.get("b", now).is_none());
        assert!(cache.get("a", now).is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    fn deps_on(pairs: &[(&str, u64)]) -> DependencySet {
        let mut deps = DependencySet::new();
        for (s, v) in pairs {
            deps.record(s, *v);
        }
        deps
    }

    #[test]
    fn dependency_set_records_oldest_version() {
        let mut deps = DependencySet::new();
        deps.record("DB", 5);
        deps.record("DB", 3);
        deps.record("DB", 9);
        assert_eq!(deps.version_of("DB"), Some(3));
        assert!(deps.depends_on("DB"));
        assert!(!deps.depends_on("XML"));
        assert_eq!(deps.iter().collect::<Vec<_>>(), vec![("DB", 3)]);
    }

    #[test]
    fn result_invalidation_drops_only_dependent_entries() {
        let cache = QueryResultCache::new(ResultCacheConfig::default());
        let now = SimDuration::ZERO;
        let plan = plan_of("SELECT watch");
        let stats = QueryStats::default;
        cache.insert("q-db".into(), plan.clone(), answer(), stats(), deps_on(&[("DB", 0)]), now);
        cache.insert("q-xml".into(), plan.clone(), answer(), stats(), deps_on(&[("XML", 0)]), now);
        cache.insert(
            "q-both".into(),
            plan.clone(),
            answer(),
            stats(),
            deps_on(&[("DB", 0), ("XML", 0)]),
            now,
        );
        // Mutating DB to version 1 drops the two entries that read DB
        // at version 0; the XML-only entry survives and replays.
        assert_eq!(cache.invalidate_source("DB", 1), 2);
        assert!(cache.get("q-xml", now).is_some());
        assert!(cache.get("q-db", now).is_none());
        assert!(cache.get("q-both", now).is_none());
        assert_eq!(cache.invalidations(), 2);
        // An entry that already read the post-mutation version is kept.
        cache.insert("q-db2".into(), plan, answer(), stats(), deps_on(&[("DB", 1)]), now);
        assert_eq!(cache.invalidate_source("DB", 1), 0);
        assert!(cache.get("q-db2", now).is_some());
    }

    #[test]
    fn admission_floor_refuses_stale_insert() {
        let cache = QueryResultCache::new(ResultCacheConfig::default());
        let now = SimDuration::ZERO;
        let plan = plan_of("SELECT watch");
        // A mutation lands while a query that read DB@0 is in flight.
        cache.invalidate_source("DB", 1);
        assert!(
            !cache.insert(
                "late".into(),
                plan.clone(),
                answer(),
                QueryStats::default(),
                deps_on(&[("DB", 0)]),
                now
            ),
            "an answer that read the pre-mutation snapshot must be refused"
        );
        assert!(cache.get("late", now).is_none());
        // The same query re-run against the new snapshot is admitted.
        assert!(cache.insert(
            "late".into(),
            plan,
            answer(),
            QueryStats::default(),
            deps_on(&[("DB", 1)]),
            now
        ));
        assert!(cache.get("late", now).is_some());
    }

    #[test]
    fn ttl_and_dependency_invalidation_compose() {
        let cache = QueryResultCache::new(ResultCacheConfig {
            capacity: 8,
            ttl: Some(SimDuration::from_millis(100)),
        });
        let plan = plan_of("SELECT watch");
        let stats = QueryStats::default;
        let t0 = SimDuration::ZERO;
        cache.insert("a".into(), plan.clone(), answer(), stats(), deps_on(&[("DB", 0)]), t0);
        cache.insert("b".into(), plan.clone(), answer(), stats(), deps_on(&[("XML", 0)]), t0);
        // Dependency invalidation drops `a` well before its TTL.
        assert_eq!(cache.invalidate_source("DB", 1), 1);
        assert!(cache.get("a", SimDuration::from_millis(10)).is_none());
        assert!(cache.get("b", SimDuration::from_millis(10)).is_some());
        // TTL still expires the survivor even though no mutation ever
        // touched XML.
        assert!(cache.get("b", SimDuration::from_millis(150)).is_none());
        // And a post-expiry reinsert remains subject to the floor.
        assert!(!cache.insert(
            "a".into(),
            plan,
            answer(),
            stats(),
            deps_on(&[("DB", 0)]),
            SimDuration::from_millis(150)
        ));
    }

    #[test]
    fn plan_cache_invalidates_by_mapped_source() {
        let cache = PlanCache::new();
        cache.insert_with_deps("q1".into(), plan_of("SELECT watch"), deps_on(&[("DB", 0)]));
        cache.insert_with_deps("q2".into(), plan_of("SELECT watch"), deps_on(&[("XML", 0)]));
        cache.insert("q3".into(), plan_of("SELECT watch"));
        assert_eq!(cache.invalidate_source("DB"), 1);
        assert!(cache.get("q1").is_none());
        assert!(cache.get("q2").is_some());
        assert!(cache.get("q3").is_some(), "dep-free plans survive targeted drops");
        assert_eq!(cache.invalidations(), 1);
    }
}
