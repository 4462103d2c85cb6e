//! The resident engine's keyed stores.
//!
//! The paper's mediator handles one query at a time; a resident,
//! concurrently shared [`crate::middleware::S2s`] memoizes three things,
//! all in one crate-private `Lru` (recency-stamped map, hit/miss/eviction
//! counters mirrored to the metrics registry): compiled rules
//! ([`crate::rules::RuleCache`]) and, above the materialized views, the
//! two query-level caches of this module:
//!
//! * the plan cache — memoizes [`crate::query::plan`] (validation
//!   against the ontology and the attribute list), keyed on the parsed
//!   query's canonical rendering (DESIGN.md "Query Handler"). A plan
//!   derives from the immutable ontology and the parsed query alone,
//!   so nothing invalidates one: only the LRU bound drops it.
//! * [`QueryResultCache`] — memoizes whole query answers (the
//!   [`InstanceSet`] plus the stats of the run that produced it),
//!   same key, LRU-bounded at [`QueryResultCache::CAPACITY`] and
//!   otherwise never expired: a source's data changes only through
//!   `S2s::mutate_source`, which swaps its immutable snapshot, so
//!   invalidation is **dependency-tracked**: each entry records the
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
//! Every lookup and insert tells its caller what it did, and a query's
//! [`QueryStats`] cache figures are tallied from those answers alone —
//! never read back from the engine-wide counters, where concurrent
//! clients would see each other's operations.

use std::borrow::Borrow;
use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

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

impl CacheStats {
    /// Tallies one lookup: a hit when it found something, else a miss.
    pub(crate) fn lookup(&mut self, found: bool) {
        if found {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
    }
}

#[derive(Debug)]
struct Slot<V> {
    value: V,
    stamp: AtomicU64,
}

/// The engine's one keyed store: a capacity-bounded map with
/// least-recently-used eviction. A hit takes only the shared lock and
/// refreshes the entry's recency stamp with a relaxed store (the stamp
/// publishes nothing); eviction is an O(n) scan for the smallest stamp
/// — the stores are small (thousands of entries) and it only runs at
/// capacity, so a heap is not worth the bookkeeping.
#[derive(Debug)]
pub(crate) struct Lru<K, V> {
    slots: RwLock<HashMap<K, Slot<V>>>,
    capacity: usize,
    tick: AtomicU64,
    /// Hits, misses, evictions.
    counts: [AtomicU64; 3],
    /// The metric each count is mirrored to.
    names: [&'static str; 3],
}

impl<K: Clone + Eq + Hash, V> Lru<K, V> {
    /// An empty store holding at most `capacity` entries (min 1) whose
    /// hits, misses and evictions feed the three named counters.
    pub(crate) fn new(capacity: usize, names: [&'static str; 3]) -> Self {
        Lru {
            slots: RwLock::new(HashMap::new()),
            capacity: capacity.max(1),
            tick: AtomicU64::new(0),
            counts: Default::default(),
            names,
        }
    }

    fn count(&self, which: usize) {
        self.counts[which].fetch_add(1, Ordering::Relaxed);
        if s2s_obs::enabled() {
            s2s_obs::global().counter(self.names[which]).inc();
        }
    }

    fn next_stamp(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Looks `key` up, counting a hit or a miss.
    pub(crate) fn get<Q>(&self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Eq + Hash + ?Sized,
        V: Clone,
    {
        let hit = self.slots.read().get(key).map(|slot| {
            slot.stamp.store(self.next_stamp(), Ordering::Relaxed);
            slot.value.clone()
        });
        self.count(usize::from(hit.is_none()));
        hit
    }

    /// Stores `value` under `key` (replacing any previous value),
    /// evicting the least recently used entry at capacity. Returns
    /// whether an entry was evicted.
    pub(crate) fn insert(&self, key: K, value: V) -> bool {
        let stamp = AtomicU64::new(self.next_stamp());
        let mut slots = self.slots.write();
        let evict = !slots.contains_key(&key) && slots.len() >= self.capacity;
        if evict {
            let oldest = slots
                .iter()
                .min_by_key(|(_, slot)| slot.stamp.load(Ordering::Relaxed))
                .map(|(k, _)| k.clone())
                .expect("at capacity (min 1), so non-empty");
            slots.remove(&oldest);
            self.count(2);
        }
        slots.insert(key, Slot { value, stamp });
        evict
    }

    /// Drops every entry `keep` rejects, returning how many went.
    pub(crate) fn retain(&self, keep: impl Fn(&V) -> bool) -> usize {
        let mut slots = self.slots.write();
        let before = slots.len();
        slots.retain(|_, slot| keep(&slot.value));
        before - slots.len()
    }

    /// Number of entries held.
    pub(crate) fn len(&self) -> usize {
        self.slots.read().len()
    }

    /// Counter snapshot.
    pub(crate) fn stats(&self) -> CacheStats {
        let [hits, misses, evictions] = [0, 1, 2].map(|i| self.counts[i].load(Ordering::Relaxed));
        CacheStats { hits, misses, evictions }
    }
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
}

/// The plan cache: an LRU-bounded memo of validated query plans,
/// keyed on the query's canonical rendering. Semantic errors are never
/// cached: a bad query re-reports its error each time.
pub(crate) type PlanCache = Lru<String, Arc<QueryPlan>>;

/// An empty plan cache, bounded at 256 distinct queries.
pub(crate) fn plan_cache() -> PlanCache {
    use s2s_obs::names::{
        PLAN_CACHE_EVICTIONS_TOTAL, PLAN_CACHE_HITS_TOTAL, PLAN_CACHE_MISSES_TOTAL,
    };
    Lru::new(256, [PLAN_CACHE_HITS_TOTAL, PLAN_CACHE_MISSES_TOTAL, PLAN_CACHE_EVICTIONS_TOTAL])
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
    result: CachedResult,
    deps: DependencySet,
}

/// An LRU memo of whole query answers, keyed on the query's canonical
/// rendering. See the module docs for the admission and invalidation
/// rules.
#[derive(Debug)]
pub struct QueryResultCache {
    /// Shared so a hit clones a pointer, not the dependency set.
    entries: Lru<String, Arc<ResultEntry>>,
    /// Highest mutation version seen per source. The lock is held
    /// across the entry insert or drop it guards (always taken before
    /// the store's own), which makes the admission-time version check
    /// race-free: a mutation first raises the floor, then drops
    /// entries; an insert whose dependencies predate the floor is
    /// refused even if it lands after the drop.
    floors: Mutex<HashMap<String, u64>>,
    invalidations: AtomicU64,
}

impl Default for QueryResultCache {
    fn default() -> Self {
        QueryResultCache::new()
    }
}

impl QueryResultCache {
    /// LRU capacity (distinct cached answers).
    pub const CAPACITY: usize = 128;

    /// An empty cache.
    pub fn new() -> Self {
        use s2s_obs::names::{
            RESULT_CACHE_EVICTIONS_TOTAL, RESULT_CACHE_HITS_TOTAL, RESULT_CACHE_MISSES_TOTAL,
        };
        let names =
            [RESULT_CACHE_HITS_TOTAL, RESULT_CACHE_MISSES_TOTAL, RESULT_CACHE_EVICTIONS_TOTAL];
        QueryResultCache {
            entries: Lru::new(Self::CAPACITY, names),
            floors: Mutex::new(HashMap::new()),
            invalidations: AtomicU64::new(0),
        }
    }

    /// Looks up the cached answer for a query key.
    pub fn get(&self, key: &str) -> Option<CachedResult> {
        self.entries.get(key).map(|e| e.result.clone())
    }

    /// Stores an answer together with the `(source, version)`
    /// dependencies the producing run read, evicting the least recently
    /// used entry at capacity. The caller enforces answer-quality
    /// admission (complete, failure-free answers only); *this* method
    /// enforces freshness admission: an answer with a dependency older
    /// than its source's floor — a mutation landed while the query was
    /// in flight — is refused and `false` returned.
    pub fn insert(&self, key: String, result: CachedResult, deps: DependencySet) -> bool {
        let floors = self.floors.lock();
        let stale =
            deps.iter().any(|(source, version)| floors.get(source).is_some_and(|f| version < *f));
        if !stale {
            self.entries.insert(key, Arc::new(ResultEntry { result, deps }));
        }
        !stale
    }

    /// Drops the entries `keep` rejects, counting them as invalidated.
    fn invalidate(&self, keep: impl Fn(&ResultEntry) -> bool) -> usize {
        let dropped = self.entries.retain(|e| keep(e));
        self.invalidations.fetch_add(dropped as u64, Ordering::Relaxed);
        if dropped > 0 && s2s_obs::enabled() {
            s2s_obs::global()
                .counter(s2s_obs::names::RESULT_CACHE_INVALIDATIONS_TOTAL)
                .add(dropped as u64);
        }
        dropped
    }

    /// Drops every cached answer — the fallback for mutations whose
    /// blast radius no dependency set can bound (registering a *new*
    /// source or attribute: existing answers may be missing data the
    /// newcomer would have contributed). Returns how many were dropped.
    pub fn invalidate_all(&self) -> usize {
        self.invalidate(|_| false)
    }

    /// Surgical invalidation for a mutation of `source` producing data
    /// `version`: raises the source's admission floor to `version`,
    /// then drops exactly the entries whose dependency set read the
    /// source at an older version. Entries that never read the source
    /// replay untouched. Returns how many entries were dropped.
    pub fn invalidate_source(&self, source: &str, version: u64) -> usize {
        let mut floors = self.floors.lock();
        let floor = floors.entry(source.to_string()).or_insert(0);
        *floor = (*floor).max(version);
        self.invalidate(|e| e.deps.version_of(source).is_none_or(|v| v >= version))
    }

    /// Drops every entry that read `source` at *any* version, without
    /// raising the admission floor — the mapping-edit path. The data
    /// version is unchanged (nothing at the source moved), but answers
    /// built under the displaced rule answer the wrong question.
    /// Registration holds `&mut S2s`, so no old-rule query can be in
    /// flight to race the drop. Returns how many entries were dropped.
    pub fn invalidate_dependents(&self, source: &str) -> usize {
        self.invalidate(|e| !e.deps.depends_on(source))
    }

    /// Number of cached answers.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no answers.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counter snapshot (hits, misses, LRU evictions at [`Self::CAPACITY`]).
    pub fn stats(&self) -> CacheStats {
        self.entries.stats()
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

    fn answer() -> CachedResult {
        CachedResult {
            plan: plan_of("SELECT watch"),
            instances: Arc::new(InstanceSet {
                graph: Graph::new(),
                individuals: Vec::new(),
                errors: Vec::new(),
                completeness: 1.0,
                round_trips: 0,
            }),
            origin: QueryStats::default(),
        }
    }

    fn lru(capacity: usize) -> Lru<String, u32> {
        Lru::new(capacity, ["s2s_test_hits", "s2s_test_misses", "s2s_test_evictions"])
    }

    #[test]
    fn lru_evicts_the_least_recently_used_entry() {
        let store = lru(2);
        assert_eq!(store.get("a"), None);
        assert!(!store.insert("a".into(), 1));
        assert!(!store.insert("b".into(), 2));
        // Touch `a`, so `b` is the victim; replacing a held key evicts
        // nothing.
        assert_eq!(store.get("a"), Some(1));
        assert!(!store.insert("a".into(), 10));
        assert!(store.insert("c".into(), 3));
        assert_eq!(store.len(), 2);
        assert_eq!(store.get("b"), None);
        assert_eq!(store.get("a"), Some(10));
        assert_eq!(store.get("c"), Some(3));
        assert_eq!(store.stats(), CacheStats { hits: 3, misses: 2, evictions: 1 });
    }

    #[test]
    fn lru_capacity_is_at_least_one() {
        let store = lru(0);
        assert!(!store.insert("a".into(), 1));
        assert!(store.insert("b".into(), 2));
        assert_eq!((store.get("a"), store.get("b")), (None, Some(2)));
    }

    #[test]
    fn plan_cache_hits_after_insert() {
        let cache = plan_cache();
        assert!(cache.get("SELECT watch").is_none());
        assert!(!cache.insert("SELECT watch".into(), plan_of("SELECT watch")));
        assert!(cache.get("SELECT watch").is_some());
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 1, evictions: 0 });
    }

    #[test]
    fn result_cache_invalidation_counts_entries() {
        let cache = QueryResultCache::new();
        for text in ["SELECT a", "SELECT b", "SELECT c"] {
            cache.insert(text.into(), answer(), DependencySet::new());
        }
        assert_eq!(cache.invalidate_all(), 3);
        assert!(cache.is_empty());
        assert_eq!(cache.invalidations(), 3);
        // Idempotent: an empty invalidation adds nothing.
        assert_eq!(cache.invalidate_all(), 0);
        assert_eq!(cache.invalidations(), 3);
    }

    #[test]
    fn result_cache_is_bounded_by_its_capacity() {
        let cache = QueryResultCache::new();
        for i in 0..=QueryResultCache::CAPACITY {
            cache.insert(format!("q{i}"), answer(), DependencySet::new());
        }
        assert_eq!(cache.len(), QueryResultCache::CAPACITY);
        assert!(cache.get("q0").is_none(), "the least recently used answer went");
        assert!(cache.get(&format!("q{}", QueryResultCache::CAPACITY)).is_some());
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
        let cache = QueryResultCache::new();
        cache.insert("q-db".into(), answer(), deps_on(&[("DB", 0)]));
        cache.insert("q-xml".into(), answer(), deps_on(&[("XML", 0)]));
        cache.insert("q-both".into(), answer(), deps_on(&[("DB", 0), ("XML", 0)]));
        // Mutating DB to version 1 drops the two entries that read DB
        // at version 0; the XML-only entry survives and replays.
        assert_eq!(cache.invalidate_source("DB", 1), 2);
        assert!(cache.get("q-xml").is_some());
        assert!(cache.get("q-db").is_none());
        assert!(cache.get("q-both").is_none());
        assert_eq!(cache.invalidations(), 2);
        // An entry that already read the post-mutation version is kept.
        cache.insert("q-db2".into(), answer(), deps_on(&[("DB", 1)]));
        assert_eq!(cache.invalidate_source("DB", 1), 0);
        assert!(cache.get("q-db2").is_some());
        // A mapping edit drops every reader of the source, whatever the
        // version, and leaves the floor where it was.
        assert_eq!(cache.invalidate_dependents("DB"), 1);
        assert!(cache.get("q-xml").is_some());
        assert!(cache.insert("q-db3".into(), answer(), deps_on(&[("DB", 1)])));
    }

    #[test]
    fn admission_floor_refuses_stale_insert() {
        let cache = QueryResultCache::new();
        // A mutation lands while a query that read DB@0 is in flight.
        cache.invalidate_source("DB", 1);
        assert!(
            !cache.insert("late".into(), answer(), deps_on(&[("DB", 0)])),
            "an answer that read the pre-mutation snapshot must be refused"
        );
        assert!(cache.get("late").is_none());
        // The same query re-run against the new snapshot is admitted.
        assert!(cache.insert("late".into(), answer(), deps_on(&[("DB", 1)])));
        assert!(cache.get("late").is_some());
    }

    /// The floor check and the drop are atomic with respect to each
    /// other: however a mutation interleaves with inserts of answers
    /// that read the pre-mutation snapshot, none survives it.
    #[test]
    fn concurrent_mutation_never_leaves_a_stale_entry() {
        for _ in 0..50 {
            let cache = QueryResultCache::new();
            let (stale, start) = (answer(), std::sync::Barrier::new(3));
            std::thread::scope(|scope| {
                for t in 0..2 {
                    let (cache, stale, start) = (&cache, &stale, &start);
                    scope.spawn(move || {
                        start.wait();
                        for i in 0..20 {
                            let deps = deps_on(&[("DB", 0)]);
                            cache.insert(format!("q{t}-{i}"), stale.clone(), deps);
                        }
                    });
                }
                start.wait();
                cache.invalidate_source("DB", 1);
            });
            assert!(cache.is_empty(), "{} stale entries survived", cache.len());
        }
    }
}
