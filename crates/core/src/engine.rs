//! The resident engine's keyed stores.
//!
//! The paper's mediator handles one query at a time; a resident,
//! concurrently shared [`crate::middleware::S2s`] memoizes two things
//! above the materialized views, both in one crate-private `Lru`
//! (recency-stamped map, hit/miss/eviction counters mirrored to the
//! metrics registry) — the query-level caches of this module. (A
//! compiled rule is no cache entry: each mapping compiles its own rule
//! once and keeps it.)
//!
//! * the plan cache — memoizes [`crate::query::plan`] (validation
//!   against the ontology and the attribute list), keyed on the parsed
//!   query's canonical rendering (DESIGN.md "Query Handler"). A plan
//!   derives from the immutable ontology and the parsed query alone,
//!   so nothing invalidates one: only the LRU bound drops it.
//! * [`QueryResultCache`] — memoizes whole query answers (the
//!   [`InstanceSet`] plus the task count of the run that produced it),
//!   same key, LRU-bounded at [`QueryResultCache::CAPACITY`]. A source's
//!   data changes only through `S2s::mutate_source`, which bumps its
//!   registry version, so freshness is decided **when an answer is
//!   read**, by the rule materialized views follow: each entry records
//!   the `(source, version)` set the producing run read, and a lookup —
//!   under the registry read lock — serves it only if every recorded
//!   version is still the registry's current one. A stale entry is a
//!   miss, and the recomputed answer overwrites it under the same key.
//!   A mutation therefore touches no cache, and an answer published by
//!   a query that raced a mutation is never served. Only what a read
//!   cannot see is dropped eagerly: a *new* mapping clears every answer
//!   (they may miss the newcomer's data), and a mapping edit drops the
//!   answers that read the edited source. Only complete, failure-free
//!   answers are admitted, so a degraded result is never replayed after
//!   the sources recover.
//!
//! Every lookup and insert tells its caller what it did, and a query's
//! [`crate::middleware::QueryStats`] cache figures are tallied from
//! those answers alone — never read back from the engine-wide counters,
//! where concurrent clients would see each other's operations.

use std::borrow::Borrow;
use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use crate::instance::InstanceSet;
use crate::query::QueryPlan;
use crate::source::SourceRegistry;

/// Hit/miss/eviction counters, shared by every cache of the engine
/// (plan and result).
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
        self.get_if(key, |_| true)
    }

    /// Looks `key` up and serves the entry only if `valid` accepts it;
    /// a rejected entry counts as a miss, keeps its slot until an
    /// insert under the same key overwrites it, and is not refreshed.
    pub(crate) fn get_if<Q>(&self, key: &Q, valid: impl FnOnce(&V) -> bool) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Eq + Hash + ?Sized,
        V: Clone,
    {
        let hit = self.slots.read().get(key).filter(|slot| valid(&slot.value)).map(|slot| {
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
/// A cached answer is fresh exactly while every recorded version is
/// still its source's current one.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DependencySet {
    sources: BTreeMap<String, u64>,
}

impl DependencySet {
    /// An empty dependency set (depends on nothing, so always fresh).
    pub fn new() -> Self {
        DependencySet::default()
    }

    /// Records that the artifact read `source` at data `version`.
    /// Re-recording keeps the *older* version: if a run somehow saw two
    /// versions, the registry is already past the first, so the entry
    /// is never served.
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
    /// The extraction tasks of the original (cache-miss) run. Only
    /// complete answers are cached, so a replay's completeness is 1.
    pub tasks: usize,
}

#[derive(Debug)]
struct ResultEntry {
    result: CachedResult,
    deps: DependencySet,
}

/// An LRU memo of whole query answers, keyed on the query's canonical
/// rendering. See the module docs for the freshness rule.
#[derive(Debug)]
pub struct QueryResultCache {
    /// Shared so a hit clones a pointer, not the dependency set.
    entries: Lru<String, Arc<ResultEntry>>,
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
            invalidations: AtomicU64::new(0),
        }
    }

    /// Looks up the cached answer for a query key, serving it only if
    /// every source it read is still at the version it read in
    /// `registry`. A stale entry counts as a miss. Taking the registry
    /// by reference means the caller holds its read lock, so no
    /// mutation lands between the compare and the serve.
    pub fn get(&self, key: &str, registry: &SourceRegistry) -> Option<CachedResult> {
        let fresh = |e: &Arc<ResultEntry>| {
            e.deps.iter().all(|(source, version)| registry.version_of(source) == Some(version))
        };
        self.entries.get_if(key, fresh).map(|e| e.result.clone())
    }

    /// Stores an answer together with the `(source, version)`
    /// dependencies the producing run read, replacing any entry under
    /// the key and evicting the least recently used one at capacity.
    /// The caller admits complete, failure-free answers only. An answer
    /// that read a snapshot a mutation has since replaced is stored
    /// like any other: [`Self::get`] never serves it.
    pub fn insert(&self, key: String, result: CachedResult, deps: DependencySet) {
        self.entries.insert(key, Arc::new(ResultEntry { result, deps }));
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

    /// Drops every cached answer — for a change no dependency set can
    /// see (registering a *new* mapping: existing answers may be missing
    /// data the newcomer would have contributed). Returns how many were
    /// dropped.
    pub fn invalidate_all(&self) -> usize {
        self.invalidate(|_| false)
    }

    /// Drops every entry that read `source` — the mapping-edit path. The
    /// data version is unchanged (nothing at the source moved), so the
    /// read-time check would pass, but answers built under the displaced
    /// rule answer the wrong question. Registration holds `&mut S2s`, so
    /// no old-rule query can be in flight to race the drop. Returns how
    /// many entries were dropped.
    pub fn invalidate_dependents(&self, source: &str) -> usize {
        self.invalidate(|e| !e.deps.depends_on(source))
    }

    /// Number of cached answers, stale ones included until a recompute
    /// overwrites them or the LRU bound evicts them.
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

    /// Entries dropped by [`Self::invalidate_all`] and
    /// [`Self::invalidate_dependents`] — mapping registrations and the
    /// operator's `invalidate_cache`; a data mutation drops nothing.
    /// Distinct from LRU evictions.
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
        answer_of(0)
    }

    /// An empty answer whose task count marks it, so a test can tell
    /// which insert it is looking at.
    fn answer_of(tasks: usize) -> CachedResult {
        CachedResult {
            plan: plan_of("SELECT watch"),
            instances: Arc::new(InstanceSet {
                graph: Graph::new(),
                individuals: Vec::new(),
                errors: Vec::new(),
                completeness: 1.0,
                round_trips: 0,
            }),
            tasks,
        }
    }

    /// A registry holding the given (empty) database sources, each at
    /// version 0.
    fn registry_of(sources: &[&str]) -> SourceRegistry {
        let mut registry = SourceRegistry::new();
        for source in sources {
            registry.register_local(*source, empty_db()).unwrap();
        }
        registry
    }

    fn empty_db() -> crate::source::Connection {
        crate::source::Connection::Database { db: Arc::new(s2s_minidb::Database::new("d")) }
    }

    /// Applies one data mutation to `source`, returning its new version.
    fn mutate(registry: &mut SourceRegistry, source: &str) -> u64 {
        let kind = s2s_netsim::ChangeKind::RowUpdate;
        registry.apply_mutation(&source.into(), empty_db(), kind, Vec::new()).unwrap()
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
        let registry = registry_of(&[]);
        assert!(cache.get("q0", &registry).is_none(), "the least recently used answer went");
        assert!(cache.get(&format!("q{}", QueryResultCache::CAPACITY), &registry).is_some());
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
    fn a_lookup_serves_only_answers_whose_sources_did_not_move() {
        let mut registry = registry_of(&["DB", "XML"]);
        let cache = QueryResultCache::new();
        cache.insert("q-db".into(), answer(), deps_on(&[("DB", 0)]));
        cache.insert("q-xml".into(), answer(), deps_on(&[("XML", 0)]));
        cache.insert("q-both".into(), answer(), deps_on(&[("DB", 0), ("XML", 0)]));
        // Mutating DB stales the two answers that read it; the XML-only
        // one keeps replaying. Nothing is dropped.
        assert_eq!(mutate(&mut registry, "DB"), 1);
        assert!(cache.get("q-xml", &registry).is_some());
        assert!(cache.get("q-db", &registry).is_none());
        assert!(cache.get("q-both", &registry).is_none());
        assert_eq!((cache.len(), cache.invalidations()), (3, 0));
        // The recompute overwrites the stale entry under its key.
        cache.insert("q-db".into(), answer(), deps_on(&[("DB", 1)]));
        assert!(cache.get("q-db", &registry).is_some());
        assert_eq!(cache.len(), 3);
        // A source the registry does not hold is never current.
        cache.insert("q-gone".into(), answer(), deps_on(&[("GONE", 0)]));
        assert!(cache.get("q-gone", &registry).is_none());
        // A mapping edit drops every reader of the source, whatever the
        // version: the read-time check cannot see a rule change.
        assert_eq!(cache.invalidate_dependents("DB"), 2);
        assert!(cache.get("q-xml", &registry).is_some());
        assert_eq!(cache.invalidations(), 2);
    }

    #[test]
    fn a_stale_lookup_is_a_miss_in_both_accounts() {
        let mut registry = registry_of(&["DB"]);
        let cache = QueryResultCache::new();
        cache.insert("q".into(), answer(), deps_on(&[("DB", 0)]));
        let lookup = |registry: &SourceRegistry| {
            let mut account = CacheStats::default();
            account.lookup(cache.get("q", registry).is_some());
            account
        };
        assert_eq!(lookup(&registry), CacheStats { hits: 1, misses: 0, evictions: 0 });
        mutate(&mut registry, "DB");
        // The query's own tally and the engine counters agree: a miss.
        assert_eq!(lookup(&registry), CacheStats { hits: 0, misses: 1, evictions: 0 });
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 1, evictions: 0 });
    }

    /// However mutations interleave with late inserts (a query that read
    /// a version publishing after a mutation replaced it) and lookups,
    /// a served answer read the version the registry holds when it is
    /// served. Each answer's task count is the version it read.
    #[test]
    fn concurrent_mutation_never_serves_a_stale_entry() {
        for _ in 0..20 {
            let (registry, cache) = (RwLock::new(registry_of(&["DB"])), QueryResultCache::new());
            let start = std::sync::Barrier::new(5);
            let served = AtomicU64::new(0);
            std::thread::scope(|scope| {
                for _ in 0..2 {
                    let (registry, cache, start) = (&registry, &cache, &start);
                    scope.spawn(move || {
                        start.wait();
                        for i in 0..200 {
                            let read = registry.read().version_of("DB").unwrap();
                            let deps = deps_on(&[("DB", read)]);
                            cache.insert(format!("q{}", i % 4), answer_of(read as usize), deps);
                        }
                    });
                }
                for _ in 0..2 {
                    let (registry, cache, start, served) = (&registry, &cache, &start, &served);
                    scope.spawn(move || {
                        start.wait();
                        for i in 0..200 {
                            let registry = registry.read();
                            if let Some(hit) = cache.get(&format!("q{}", i % 4), &registry) {
                                let current = registry.version_of("DB").unwrap();
                                assert_eq!(hit.tasks as u64, current, "a stale answer was served");
                                served.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    });
                }
                start.wait();
                for _ in 0..20 {
                    mutate(&mut registry.write(), "DB");
                }
            });
            let last = registry.read().version_of("DB").unwrap();
            assert_eq!(last, 20);
            // After the last mutation a late insert can still hold an old
            // version; the next lookup misses it rather than serving it.
            for i in 0..4 {
                if let Some(hit) = cache.get(&format!("q{i}"), &registry.read()) {
                    assert_eq!(hit.tasks as u64, last);
                }
            }
        }
    }
}
