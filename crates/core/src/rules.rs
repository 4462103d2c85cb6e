//! Compiled-rule cache.
//!
//! Compiling an extraction rule — the regex NFA, the XPath/XQuery
//! parse, the WebL program, the SQL statement — is work to do once, not
//! per task per query: mappings are stable (the paper: they "should not
//! need substantial maintenance after being created"), so the compiled
//! form is reusable forever. [`RuleCache`] memoizes it per distinct
//! `(language, rule text)` and is shared across tasks and queries via
//! the middleware.
//!
//! Only successful compiles are cached: a malformed rule re-reports its
//! error on every use instead of poisoning the cache.
//!
//! Like the plan and result caches, the memo is the engine's shared
//! LRU store, bounded at [`RuleCache::CAPACITY`] so a resident engine
//! cannot grow it without bound; evictions are counted and exported.

use std::sync::Arc;

use s2s_minidb::{Database, SelectStmt};
use s2s_textmatch::Regex;
use s2s_webdoc::WeblProgram;
use s2s_xml::xpath::XPath;
use s2s_xml::xquery::XQuery;

use crate::engine::{CacheStats, Lru};
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

/// A concurrent, LRU-bounded memo of compiled extraction rules, keyed
/// on `(language, rule text)`.
#[derive(Debug)]
pub struct RuleCache {
    compiled: Lru<(&'static str, String), CompiledRule>,
}

impl Default for RuleCache {
    fn default() -> Self {
        RuleCache::new()
    }
}

impl RuleCache {
    /// LRU capacity (distinct `(language, text)` rules).
    pub const CAPACITY: usize = 1024;

    /// An empty cache.
    pub fn new() -> Self {
        let names = [
            "s2s_rule_cache_hits_total",
            "s2s_rule_cache_misses_total",
            s2s_obs::names::RULE_CACHE_EVICTIONS_TOTAL,
        ];
        RuleCache { compiled: Lru::new(Self::CAPACITY, names) }
    }

    /// Returns the compiled form of `rule`, compiling on first sight,
    /// and tallies the lookup (hit or miss, and an eviction if storing
    /// the fresh compile caused one) into the caller's `account`.
    ///
    /// # Errors
    ///
    /// Propagates the rule's own parse/compile error ([`S2sError::Db`],
    /// XML, WebL, or regex errors).
    pub fn get_or_compile(
        &self,
        rule: &ExtractionRule,
        account: &mut CacheStats,
    ) -> Result<CompiledRule, S2sError> {
        let key = (rule.language(), rule.text().to_string());
        let hit = self.compiled.get(&key);
        account.lookup(hit.is_some());
        if let Some(hit) = hit {
            return Ok(hit);
        }
        let compiled = compile(rule)?;
        // A racing compile of the same rule is harmless: last one wins.
        account.evictions += u64::from(self.compiled.insert(key, compiled.clone()));
        Ok(compiled)
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        self.compiled.stats()
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

    fn compile_in(cache: &RuleCache, rule: &ExtractionRule) -> Result<CompiledRule, S2sError> {
        cache.get_or_compile(rule, &mut CacheStats::default())
    }

    #[test]
    fn repeat_compiles_hit_and_each_lookup_is_accounted_to_its_caller() {
        let cache = RuleCache::new();
        let rule = ExtractionRule::XPath { path: "//w/brand/text()".into() };
        let (mut first, mut second) = (CacheStats::default(), CacheStats::default());
        assert!(cache.get_or_compile(&rule, &mut first).is_ok());
        assert!(cache.get_or_compile(&rule, &mut second).is_ok());
        assert_eq!(first, CacheStats { hits: 0, misses: 1, evictions: 0 });
        assert_eq!(second, CacheStats { hits: 1, misses: 0, evictions: 0 });
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 1, evictions: 0 });
    }

    #[test]
    fn hostile_regex_nesting_is_a_coded_error() {
        // Deep enough to overflow the stack of an uncapped parser.
        let pattern = format!("{}a{}", "(".repeat(200_000), ")".repeat(200_000));
        let rule = ExtractionRule::TextRegex { pattern, group: 1 };
        let Err(err) = compile_in(&RuleCache::new(), &rule) else {
            panic!("nesting is capped");
        };
        assert_eq!(err.code(), "s2s::webdoc");
        assert!(matches!(err, S2sError::Webdoc(s2s_webdoc::WebdocError::BadRegex { .. })));
    }

    #[test]
    fn distinct_rules_do_not_collide() {
        let cache = RuleCache::new();
        compile_in(&cache, &ExtractionRule::TextRegex { pattern: "a+".into(), group: 0 }).unwrap();
        compile_in(&cache, &ExtractionRule::TextRegex { pattern: "b+".into(), group: 0 }).unwrap();
        // Same pattern, different group: the compiled regex is shared.
        compile_in(&cache, &ExtractionRule::TextRegex { pattern: "a+".into(), group: 1 }).unwrap();
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 2, evictions: 0 });
    }

    #[test]
    fn bad_rules_error_every_time_and_are_never_cached() {
        let cache = RuleCache::new();
        let bad = ExtractionRule::Sql { query: "DROP TABLE t".into(), column: "c".into() };
        let mut account = CacheStats::default();
        assert!(cache.get_or_compile(&bad, &mut account).is_err());
        assert!(cache.get_or_compile(&bad, &mut account).is_err());
        // Had the first failure been cached, the second would have hit.
        assert_eq!(account, CacheStats { hits: 0, misses: 2, evictions: 0 });
        assert_eq!(cache.stats(), account);
    }

    #[test]
    fn a_compile_past_capacity_reports_its_eviction() {
        let cache = RuleCache::new();
        let mut account = CacheStats::default();
        for i in 0..=RuleCache::CAPACITY {
            let rule = ExtractionRule::XPath { path: format!("//r{i}") };
            cache.get_or_compile(&rule, &mut account).unwrap();
        }
        assert_eq!((account.misses, account.evictions), (RuleCache::CAPACITY as u64 + 1, 1));
        assert_eq!(cache.stats(), account);
    }

    #[test]
    fn sql_compiles_to_prepared_select() {
        let rule = ExtractionRule::Sql { query: "SELECT a FROM t".into(), column: "a".into() };
        match compile_in(&RuleCache::new(), &rule).unwrap() {
            CompiledRule::Sql(stmt) => assert_eq!(stmt.table, "t"),
            other => panic!("expected Sql, got {other:?}"),
        }
    }
}
