//! Extraction-result caching.
//!
//! The paper notes mappings "should not need substantial maintenance
//! after being created" and sources "do not normally change their
//! structures" — the same stability argument makes extraction results
//! cacheable across queries. [`ExtractionCache`] memoizes the raw value
//! lists per `(source, rule)`; a repeat query serves those attributes
//! with zero simulated network cost.
//!
//! Scope and invalidation: registered sources are immutable snapshots
//! (`Arc`-shared), so entries only go stale when a mutation swaps a
//! source's snapshot. The mutation path drops exactly that source's
//! entries ([`ExtractionCache::invalidate_source`] — the cache key
//! leads with the source id); [`ExtractionCache::clear`] remains the
//! blunt full refresh for operators.
//!
//! Freshness: a query fills the cache after it has released the source
//! registry, so a mutation can land between its extraction and its
//! fill. Every fill therefore carries the source version the query read
//! while it held the registry, and every invalidation raises a
//! per-source *floor* to the mutation's version; a fill stamped below
//! the floor is pre-mutation data and is refused (the same rule the
//! query-result cache applies to whole answers).
//!
//! Bounding: a resident engine keeps its caches for the life of the
//! process, so the map is LRU-bounded ([`ExtractionCache::with_capacity`],
//! default [`ExtractionCache::DEFAULT_CAPACITY`]). Recency is a global
//! tick stamped on each hit; at capacity, inserting a new key evicts the
//! stalest entry and bumps the `evictions` counter.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use crate::mapping::AttributeMapping;

/// Cache key: source id, rule language, rule text, scenario.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Key {
    source: String,
    language: &'static str,
    rule: String,
    single_record: bool,
}

impl Key {
    fn of(mapping: &AttributeMapping) -> Self {
        Key {
            source: mapping.source().to_string(),
            language: mapping.rule().language(),
            rule: mapping.rule().text().to_string(),
            single_record: mapping.scenario() == crate::mapping::RecordScenario::SingleRecord,
        }
    }
}

/// Hit/miss/eviction counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries dropped by the LRU capacity bound.
    pub evictions: u64,
}

#[derive(Debug)]
struct Entry {
    values: Arc<Vec<String>>,
    /// Global-tick value of the last touch; the smallest stamp is the
    /// least recently used entry.
    stamp: AtomicU64,
}

/// Entries plus the per-source version floor, under one lock so that a
/// fill's freshness check and an invalidation are atomic with respect
/// to each other.
#[derive(Debug, Default)]
struct State {
    entries: HashMap<Key, Entry>,
    /// Highest mutation version seen per source: fills that read an
    /// older version of the source are stale and refused.
    floors: HashMap<String, u64>,
}

/// A concurrent, LRU-bounded memo of extraction results.
#[derive(Debug)]
pub struct ExtractionCache {
    state: RwLock<State>,
    capacity: usize,
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl Default for ExtractionCache {
    fn default() -> Self {
        ExtractionCache::new()
    }
}

impl ExtractionCache {
    /// Default LRU capacity (distinct `(source, rule)` entries).
    pub const DEFAULT_CAPACITY: usize = 4096;

    /// An empty cache with the default capacity.
    pub fn new() -> Self {
        ExtractionCache::with_capacity(Self::DEFAULT_CAPACITY)
    }

    /// An empty cache holding at most `capacity` entries (min 1).
    pub fn with_capacity(capacity: usize) -> Self {
        ExtractionCache {
            state: RwLock::new(State::default()),
            capacity: capacity.max(1),
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The LRU capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Looks up the values for a mapping, refreshing its recency.
    pub fn get(&self, mapping: &AttributeMapping) -> Option<Arc<Vec<String>>> {
        let hit = {
            let state = self.state.read();
            state.entries.get(&Key::of(mapping)).map(|e| {
                e.stamp.store(self.tick.fetch_add(1, Ordering::Relaxed) + 1, Ordering::Relaxed);
                Arc::clone(&e.values)
            })
        };
        match &hit {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        if s2s_obs::enabled() {
            let name = if hit.is_some() {
                "s2s_extraction_cache_hits_total"
            } else {
                "s2s_extraction_cache_misses_total"
            };
            s2s_obs::global().counter(name).inc();
        }
        hit
    }

    /// Stores the values extracted for a mapping while its source was at
    /// data version `version`, evicting the least recently used entry if
    /// the cache is at capacity. Returns `false`, storing nothing, when
    /// the source has since been invalidated at a newer version: the
    /// values predate a mutation.
    pub fn insert(&self, mapping: &AttributeMapping, values: Vec<String>, version: u64) -> bool {
        let key = Key::of(mapping);
        let stamp = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
        let mut state = self.state.write();
        if state.floors.get(&key.source).is_some_and(|floor| version < *floor) {
            return false;
        }
        let entries = &mut state.entries;
        if !entries.contains_key(&key) && entries.len() >= self.capacity {
            evict_lru(entries, |e| &e.stamp);
            self.evictions.fetch_add(1, Ordering::Relaxed);
            if s2s_obs::enabled() {
                s2s_obs::global().counter(s2s_obs::names::EXTRACTION_CACHE_EVICTIONS_TOTAL).inc();
            }
        }
        entries.insert(key, Entry { values: Arc::new(values), stamp: AtomicU64::new(stamp) });
        true
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.state.read().entries.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.state.read().entries.is_empty()
    }

    /// Drops every entry, returning how many were dropped. Floors stay:
    /// a fill still in flight is as stale after a clear as before it.
    pub fn clear(&self) -> usize {
        let mut state = self.state.write();
        let n = state.entries.len();
        state.entries.clear();
        n
    }

    /// Invalidation for a change that leaves `source` at data version
    /// `version`: raises the source's floor to `version`, then drops
    /// exactly the entries extracted from it, returning how many were
    /// dropped. Entries for other sources keep serving.
    pub fn invalidate_source(&self, source: &str, version: u64) -> usize {
        let mut state = self.state.write();
        let floor = state.floors.entry(source.to_string()).or_insert(0);
        *floor = (*floor).max(version);
        let before = state.entries.len();
        state.entries.retain(|k, _| k.source != source);
        before - state.entries.len()
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::{ExtractionRule, MappingModule, RecordScenario};
    use s2s_owl::Ontology;

    fn mapping(rule_text: &str, source: &str) -> AttributeMapping {
        let o = Ontology::builder("http://x.example/#")
            .class("A", None)
            .unwrap()
            .datatype_property("p", "A", "http://www.w3.org/2001/XMLSchema#string")
            .unwrap()
            .build()
            .unwrap();
        let mut m = MappingModule::new();
        m.register(
            &o,
            "thing.a.p".parse().unwrap(),
            ExtractionRule::TextRegex { pattern: rule_text.into(), group: 0 },
            source.into(),
            RecordScenario::MultiRecord,
        )
        .unwrap();
        let mapping = m.iter().next().unwrap().clone();
        mapping
    }

    #[test]
    fn miss_then_hit() {
        let cache = ExtractionCache::new();
        let m = mapping("x", "S");
        assert!(cache.get(&m).is_none());
        cache.insert(&m, vec!["a".into(), "b".into()], 0);
        assert_eq!(cache.get(&m).unwrap().as_slice(), ["a", "b"]);
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.evictions, 0);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_rules_and_sources_do_not_collide() {
        let cache = ExtractionCache::new();
        cache.insert(&mapping("x", "S1"), vec!["1".into()], 0);
        cache.insert(&mapping("x", "S2"), vec!["2".into()], 0);
        cache.insert(&mapping("y", "S1"), vec!["3".into()], 0);
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.get(&mapping("x", "S2")).unwrap().as_slice(), ["2"]);
    }

    #[test]
    fn clear_empties_and_reports_count() {
        let cache = ExtractionCache::new();
        cache.insert(&mapping("x", "S"), vec![], 0);
        assert!(!cache.is_empty());
        assert_eq!(cache.clear(), 1);
        assert!(cache.is_empty());
        assert_eq!(cache.clear(), 0);
    }

    #[test]
    fn invalidate_source_is_surgical() {
        let cache = ExtractionCache::new();
        cache.insert(&mapping("x", "S1"), vec!["1".into()], 0);
        cache.insert(&mapping("y", "S1"), vec!["2".into()], 0);
        cache.insert(&mapping("x", "S2"), vec!["3".into()], 0);
        assert_eq!(cache.invalidate_source("S1", 1), 2);
        assert_eq!(cache.len(), 1);
        assert!(cache.get(&mapping("x", "S2")).is_some());
        assert_eq!(cache.invalidate_source("S1", 1), 0);
        assert_eq!(cache.invalidate_source("unregistered", 0), 0);
    }

    #[test]
    fn fill_stamped_below_the_invalidation_floor_is_refused() {
        // The in-flight-query race, replayed without threads: a query
        // reads S at version 0 and extracts; a mutation takes S to
        // version 1 and invalidates; only then does the query fill.
        let cache = ExtractionCache::new();
        let m = mapping("x", "S");
        assert_eq!(cache.invalidate_source("S", 1), 0);
        assert!(!cache.insert(&m, vec!["pre-mutation".into()], 0));
        assert!(cache.get(&m).is_none(), "stale fill must not be served");
        // A fill that read the mutated source is admitted, as are other
        // sources at any version; a blunt clear does not lower the floor.
        assert!(cache.insert(&m, vec!["post-mutation".into()], 1));
        assert!(cache.insert(&mapping("x", "S2"), vec!["other".into()], 0));
        assert_eq!(cache.get(&m).unwrap().as_slice(), ["post-mutation"]);
        assert_eq!(cache.clear(), 2);
        assert!(!cache.insert(&m, vec!["pre-mutation".into()], 0));
        // Floors only rise.
        cache.invalidate_source("S", 0);
        assert!(!cache.insert(&m, vec!["pre-mutation".into()], 0));
    }

    #[test]
    fn capacity_evicts_least_recently_used() {
        let cache = ExtractionCache::with_capacity(2);
        let (a, b, c) = (mapping("a", "S"), mapping("b", "S"), mapping("c", "S"));
        cache.insert(&a, vec!["a".into()], 0);
        cache.insert(&b, vec!["b".into()], 0);
        // Touch `a` so `b` becomes the LRU victim.
        assert!(cache.get(&a).is_some());
        cache.insert(&c, vec!["c".into()], 0);
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&a).is_some());
        assert!(cache.get(&b).is_none());
        assert!(cache.get(&c).is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn reinserting_existing_key_does_not_evict() {
        let cache = ExtractionCache::with_capacity(2);
        let (a, b) = (mapping("a", "S"), mapping("b", "S"));
        cache.insert(&a, vec!["1".into()], 0);
        cache.insert(&b, vec!["2".into()], 0);
        cache.insert(&a, vec!["1b".into()], 0);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 0);
        assert_eq!(cache.get(&a).unwrap().as_slice(), ["1b"]);
    }
}
