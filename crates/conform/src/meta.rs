//! Metamorphic relations: rewrites that must not change the answer.
//!
//! Each rewrite runs on a fresh identically-seeded engine, so it is the
//! only difference, and its answer is checked against the ground truth
//! ([`Scenario::expected`]) as one more arm:
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

use crate::expected::Answer;
use crate::oracle::{ground_truth, Violation};
use crate::scenario::{spells_bare, BuildConfig, Cond, Scenario, ATTRS};

/// Runs every metamorphic rewrite and checks its answer against
/// `expected`.
pub fn check_metamorphic(scenario: &Scenario, expected: &Answer) -> Vec<Violation> {
    let mut violations = Vec::new();
    let canonical = scenario.query_text();
    let mut rng = StdRng::seed_from_u64(scenario.seed ^ 0x5EED_5EED_5EED_5EED);
    let mut arm = |name: &str, config: BuildConfig, query: &str| {
        let outcome = scenario.build(&config).query(query).expect("the rewrite is valid S2SQL");
        ground_truth(name, &outcome, expected, &mut violations);
    };

    // 1. Spelling variant.
    let variant = spelling_variant(scenario, &mut rng);
    let normalizes = query::normalize(&variant) == query::normalize(&canonical);
    if normalizes {
        arm(&format!("spelling-variant {variant:?}"), BuildConfig::batched(), &variant);
    }

    // 2. Condition reordering (needs at least two conditions).
    if scenario.conditions.len() >= 2 {
        let mut text = String::from("SELECT watch");
        for (i, c) in scenario.conditions.iter().rev().enumerate() {
            text.push_str(if i == 0 { " WHERE " } else { " AND " });
            text.push_str(&c.render());
        }
        arm(&format!("reordered-conditions {text:?}"), BuildConfig::batched(), &text);
    }

    // 3. Registration permutations.
    if scenario.sources.len() >= 2 {
        let order = (0..scenario.sources.len()).rev().collect();
        arm(
            "reversed-sources",
            BuildConfig { source_order: Some(order), ..BuildConfig::batched() },
            &canonical,
        );
    }
    arm(
        "rotated-attributes",
        BuildConfig { attr_order: Some(vec![1, 2, 0]), ..BuildConfig::batched() },
        &canonical,
    );

    if !normalizes {
        violations.push(Violation {
            oracle: "meta-normalize".into(),
            detail: format!(
                "spelling variant normalizes differently\ncanonical: {canonical}\nvariant: {variant}"
            ),
        });
    }
    violations
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
