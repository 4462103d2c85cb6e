//! Compiled-rule cache.
//!
//! `run_wrapper` used to recompile its extraction rule on every call:
//! the regex NFA, the XPath/XQuery parse, the WebL program, and the SQL
//! statement were all rebuilt per task, per query. Mappings are stable
//! (the paper: they "should not need substantial maintenance after
//! being created"), so the compiled form is reusable forever.
//! [`RuleCache`] memoizes it per distinct `(language, rule text)` and
//! is shared across tasks and queries via the middleware.
//!
//! Only successful compiles are cached: a malformed rule re-reports its
//! error on every use instead of poisoning the cache.
//!
//! Like the plan and result caches, the map is LRU-bounded
//! ([`RuleCache::with_capacity`], default [`RuleCache::DEFAULT_CAPACITY`])
//! so a resident engine cannot grow it without bound; evictions are
//! counted and exported.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;
use s2s_minidb::{Database, SelectStmt};
use s2s_textmatch::Regex;
use s2s_webdoc::WeblProgram;
use s2s_xml::xpath::XPath;
use s2s_xml::xquery::XQuery;

use crate::engine::{evict_lru, CacheStats};
use crate::error::S2sError;
use crate::mapping::ExtractionRule;

/// A rule compiled to its executable form. Variants are `Arc`-shared so
/// a cache hit is a pointer clone.
#[derive(Debug, Clone)]
pub enum CompiledRule {
    /// A parsed SQL SELECT (column projection happens at execution).
    Sql(Arc<SelectStmt>),
    /// A parsed XPath expression.
    XPath(Arc<XPath>),
    /// A parsed XQuery FLWOR expression.
    XQuery(Arc<XQuery>),
    /// A parsed WebL program.
    Webl(Arc<WeblProgram>),
    /// A compiled regular expression (the capture group index lives in
    /// the mapping, not here).
    Regex(Arc<Regex>),
}

#[derive(Debug)]
struct Entry {
    rule: CompiledRule,
    stamp: AtomicU64,
}

/// A concurrent, LRU-bounded memo of compiled extraction rules.
#[derive(Debug)]
pub struct RuleCache {
    compiled: RwLock<HashMap<(&'static str, String), Entry>>,
    capacity: usize,
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl Default for RuleCache {
    fn default() -> Self {
        RuleCache::new()
    }
}

impl RuleCache {
    /// Default LRU capacity (distinct `(language, text)` rules).
    pub const DEFAULT_CAPACITY: usize = 1024;

    /// An empty cache with the default capacity.
    pub fn new() -> Self {
        RuleCache::with_capacity(Self::DEFAULT_CAPACITY)
    }

    /// An empty cache holding at most `capacity` compiled rules (min 1).
    pub fn with_capacity(capacity: usize) -> Self {
        RuleCache {
            compiled: RwLock::new(HashMap::new()),
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

    /// Returns the compiled form of `rule`, compiling on first sight.
    ///
    /// # Errors
    ///
    /// Propagates the rule's own parse/compile error ([`S2sError::Db`],
    /// XML, WebL, or regex errors).
    pub fn get_or_compile(&self, rule: &ExtractionRule) -> Result<CompiledRule, S2sError> {
        let key = (rule.language(), rule.text().to_string());
        if let Some(hit) = self.compiled.read().get(&key) {
            hit.stamp.store(self.tick.fetch_add(1, Ordering::Relaxed) + 1, Ordering::Relaxed);
            self.hits.fetch_add(1, Ordering::Relaxed);
            if s2s_obs::enabled() {
                s2s_obs::global().counter("s2s_rule_cache_hits_total").inc();
            }
            return Ok(hit.rule.clone());
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        if s2s_obs::enabled() {
            s2s_obs::global().counter("s2s_rule_cache_misses_total").inc();
        }
        let compiled = compile(rule)?;
        let stamp = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
        let mut entries = self.compiled.write();
        // A racing compile of the same rule is harmless: keep the first.
        if !entries.contains_key(&key) {
            if entries.len() >= self.capacity {
                evict_lru(&mut entries, |e| &e.stamp);
                self.evictions.fetch_add(1, Ordering::Relaxed);
                if s2s_obs::enabled() {
                    s2s_obs::global().counter(s2s_obs::names::RULE_CACHE_EVICTIONS_TOTAL).inc();
                }
            }
            entries.insert(key, Entry { rule: compiled.clone(), stamp: AtomicU64::new(stamp) });
        }
        Ok(compiled)
    }

    /// Number of distinct compiled rules held.
    pub fn len(&self) -> usize {
        self.compiled.read().len()
    }

    /// Whether the cache holds no compiled rules.
    pub fn is_empty(&self) -> bool {
        self.compiled.read().is_empty()
    }

    /// Drops every compiled rule.
    pub fn clear(&self) {
        self.compiled.write().clear();
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

fn compile(rule: &ExtractionRule) -> Result<CompiledRule, S2sError> {
    match rule {
        ExtractionRule::Sql { query, .. } => {
            Ok(CompiledRule::Sql(Arc::new(Database::prepare_select(query)?)))
        }
        ExtractionRule::XPath { path } => Ok(CompiledRule::XPath(Arc::new(XPath::new(path)?))),
        ExtractionRule::XQuery { query } => Ok(CompiledRule::XQuery(Arc::new(XQuery::new(query)?))),
        ExtractionRule::Webl { program } => {
            Ok(CompiledRule::Webl(Arc::new(WeblProgram::parse(program)?)))
        }
        ExtractionRule::TextRegex { pattern, .. } => {
            let re = Regex::new(pattern).map_err(|e| {
                S2sError::Webdoc(s2s_webdoc::WebdocError::BadRegex {
                    pattern: pattern.clone(),
                    message: e.to_string(),
                })
            })?;
            Ok(CompiledRule::Regex(Arc::new(re)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeat_compiles_hit() {
        let cache = RuleCache::new();
        let rule = ExtractionRule::XPath { path: "//w/brand/text()".into() };
        assert!(cache.get_or_compile(&rule).is_ok());
        assert!(cache.get_or_compile(&rule).is_ok());
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 1, evictions: 0 });
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn hostile_regex_nesting_is_a_coded_error() {
        // Deep enough to overflow the stack of an uncapped parser.
        let pattern = format!("{}a{}", "(".repeat(200_000), ")".repeat(200_000));
        let rule = ExtractionRule::TextRegex { pattern, group: 1 };
        let Err(err) = RuleCache::new().get_or_compile(&rule) else {
            panic!("nesting is capped");
        };
        assert_eq!(err.code(), "s2s::webdoc");
        assert!(matches!(err, S2sError::Webdoc(s2s_webdoc::WebdocError::BadRegex { .. })));
    }

    #[test]
    fn distinct_rules_do_not_collide() {
        let cache = RuleCache::new();
        cache
            .get_or_compile(&ExtractionRule::TextRegex { pattern: "a+".into(), group: 0 })
            .unwrap();
        cache
            .get_or_compile(&ExtractionRule::TextRegex { pattern: "b+".into(), group: 0 })
            .unwrap();
        // Same pattern, different group: the compiled regex is shared.
        cache
            .get_or_compile(&ExtractionRule::TextRegex { pattern: "a+".into(), group: 1 })
            .unwrap();
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 2, evictions: 0 });
    }

    #[test]
    fn bad_rules_error_every_time_and_are_never_cached() {
        let cache = RuleCache::new();
        let bad = ExtractionRule::Sql { query: "DROP TABLE t".into(), column: "c".into() };
        assert!(cache.get_or_compile(&bad).is_err());
        assert!(cache.get_or_compile(&bad).is_err());
        assert!(cache.is_empty());
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn sql_compiles_to_prepared_select() {
        let cache = RuleCache::new();
        let rule = ExtractionRule::Sql { query: "SELECT a FROM t".into(), column: "a".into() };
        match cache.get_or_compile(&rule).unwrap() {
            CompiledRule::Sql(stmt) => assert_eq!(stmt.table, "t"),
            other => panic!("expected Sql, got {other:?}"),
        }
    }

    #[test]
    fn clear_empties() {
        let cache = RuleCache::new();
        cache.get_or_compile(&ExtractionRule::XPath { path: "//x".into() }).unwrap();
        assert!(!cache.is_empty());
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn capacity_evicts_least_recently_used() {
        let cache = RuleCache::with_capacity(2);
        let (a, b, c) = (
            ExtractionRule::XPath { path: "//a".into() },
            ExtractionRule::XPath { path: "//b".into() },
            ExtractionRule::XPath { path: "//c".into() },
        );
        cache.get_or_compile(&a).unwrap();
        cache.get_or_compile(&b).unwrap();
        // Touch `a`; compiling `c` must evict `b`.
        cache.get_or_compile(&a).unwrap();
        cache.get_or_compile(&c).unwrap();
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
        let before = cache.stats();
        cache.get_or_compile(&a).unwrap();
        cache.get_or_compile(&b).unwrap(); // recompiles: it was evicted
        let after = cache.stats();
        assert_eq!(after.hits - before.hits, 1);
        assert_eq!(after.misses - before.misses, 1);
    }
}
