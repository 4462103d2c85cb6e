//! Metamorphic relations: rewrites that must not change the answer.
//!
//! Each rewrite is one more row of the arm table ([`crate::oracle`]): a
//! fresh identically-seeded engine, so the rewrite is the only
//! difference, owing the ground truth ([`Scenario::expected`]):
//!
//! 1. **S2SQL spelling** (`spelling-variant`) — whitespace padding,
//!    keyword case, quote style, bare constraints, `<>` for `!=` and
//!    redundant parentheses parse to the same query, so they must also
//!    share a cache key (`meta-normalize`, the one check here that is not
//!    an answer). That a shared key means a shared parse is the property
//!    test `shared_key_means_shared_parse` in `s2s-core`.
//! 2. **Condition reordering** (`reordered-conditions`) — `AND` is
//!    commutative.
//! 3. **Registration permutation** (`reversed-sources`,
//!    `rotated-attributes`) — the source registry and the mapping module
//!    key on ids/paths, not insertion order.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use s2s_core::query;

use crate::oracle::{Checks, Violation};
use crate::scenario::{spells_bare, BuildConfig, Cond, Scenario, ATTRS};

/// Every metamorphic rewrite as `(arm name, build config, query text)`;
/// pushes `meta-normalize` when the spelling variant keys apart from
/// the canonical text (and then leaves that rewrite out).
pub(crate) fn rewrites(
    scenario: &Scenario,
    violations: &mut Vec<Violation>,
) -> Vec<(String, BuildConfig, String)> {
    let canonical = scenario.query_text();
    let mut rng = StdRng::seed_from_u64(scenario.seed ^ 0x5EED_5EED_5EED_5EED);
    let batched = BuildConfig::batched;
    let mut rewrites = Vec::new();
    let variant = spelling_variant(scenario, &mut rng);
    let normalizes = query::normalize(&variant) == query::normalize(&canonical);
    violations.check(normalizes, "meta-normalize", || {
        format!(
            "spelling variant normalizes differently\ncanonical: {canonical}\nvariant: {variant}"
        )
    });
    if normalizes {
        rewrites.push((format!("spelling-variant {variant:?}"), batched(), variant));
    }
    if scenario.conditions.len() >= 2 {
        let conditions = scenario.conditions.iter().rev().cloned().collect();
        let text = Scenario { conditions, ..scenario.clone() }.query_text();
        rewrites.push((format!("reordered-conditions {text:?}"), batched(), text));
    }
    if scenario.sources.len() >= 2 {
        let order = (0..scenario.sources.len()).rev().collect();
        let config = BuildConfig { source_order: Some(order), ..batched() };
        rewrites.push(("reversed-sources".into(), config, canonical.clone()));
    }
    let config = BuildConfig { attr_order: Some(vec![1, 2, 0]), ..batched() };
    rewrites.push(("rotated-attributes".into(), config, canonical));
    rewrites
}

/// Rewrites the canonical query into another spelling of the same parse
/// (seeded): whitespace padding, keyword casing, `<>` for `!=`, each
/// constraint single-quoted, double-quoted or bare, and redundant
/// parentheses around leaves and the whole condition.
pub fn spelling_variant(scenario: &Scenario, rng: &mut StdRng) -> String {
    let mut text = String::new();
    text.push_str(&pad(rng));
    text.push_str(&casing("SELECT", rng));
    text.push_str(&pad(rng));
    text.push_str("watch");
    let wrap_all = rng.gen_bool(0.3);
    for (i, c) in scenario.conditions.iter().enumerate() {
        text.push_str(&pad(rng));
        text.push_str(&casing(if i == 0 { "WHERE" } else { "AND" }, rng));
        text.push_str(&pad(rng));
        if i == 0 && wrap_all {
            text.push('(');
        }
        spell(c, rng, &mut text);
    }
    if wrap_all && !scenario.conditions.is_empty() {
        text.push(')');
    }
    text.push_str(&pad(rng));
    text
}

/// Appends a spelling of the conjunct `c` to `text`.
fn spell(c: &Cond, rng: &mut StdRng, text: &mut String) {
    let parens = if rng.gen_bool(0.3) { rng.gen_range(1..3) } else { 0 };
    text.push_str(&"(".repeat(parens));
    match c {
        Cond::Leaf(c) => {
            let op = match c.op.as_str() {
                "!=" if rng.gen_bool(0.5) => "<>".to_string(),
                "LIKE" => casing("LIKE", rng),
                op => op.to_string(),
            };
            let value = match rng.gen_range(0..3) {
                0 if spells_bare(&c.value) => c.value.clone(),
                1 => format!("\"{}\"", c.value.replace('"', "\"\"")),
                _ => format!("'{}'", c.value.replace('\'', "''")),
            };
            text.push_str(&format!("{}{}{op}{}{value}", ATTRS[c.attr], pad(rng), pad(rng)));
        }
        Cond::Not(e) => {
            text.push_str(&casing("NOT", rng));
            text.push_str(&pad(rng));
            text.push('(');
            spell(e, rng, text);
            text.push(')');
        }
        Cond::And(a, b) | Cond::Or(a, b) => {
            let op = if matches!(c, Cond::And(..)) { "AND" } else { "OR" };
            text.push('(');
            spell(a, rng, text);
            text.push_str(&pad(rng));
            text.push_str(&casing(op, rng));
            text.push_str(&pad(rng));
            spell(b, rng, text);
            text.push(')');
        }
    }
    text.push_str(&")".repeat(parens));
}

/// One to three spaces or tabs.
fn pad(rng: &mut StdRng) -> String {
    let n = rng.gen_range(1..4);
    (0..n).map(|_| if rng.gen_bool(0.8) { ' ' } else { '\t' }).collect()
}

/// `word` in lower, upper or alternating case.
fn casing(word: &str, rng: &mut StdRng) -> String {
    match rng.gen_range(0..3) {
        0 => word.to_ascii_lowercase(),
        1 => word.to_ascii_uppercase(),
        _ => {
            let mut out = String::new();
            for (i, c) in word.chars().enumerate() {
                if i % 2 == 0 {
                    out.extend(c.to_lowercase());
                } else {
                    out.extend(c.to_uppercase());
                }
            }
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spelling_variants_normalize_to_canonical() {
        for seed in 0..40 {
            let scenario = Scenario::generate(seed);
            let mut rng = StdRng::seed_from_u64(seed);
            let variant = spelling_variant(&scenario, &mut rng);
            assert_eq!(
                query::normalize(&variant),
                query::normalize(&scenario.query_text()),
                "seed {seed}: {variant:?}"
            );
        }
    }
}
