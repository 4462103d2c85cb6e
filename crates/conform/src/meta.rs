//! Metamorphic relations: rewrites that must not change the answer.
//!
//! Three families, each run on a fresh identically-seeded engine so the
//! rewrite is the only difference:
//!
//! 1. **S2SQL spelling** — whitespace padding, keyword case, quote
//!    style, bare constraints, `<>` for `!=` and redundant parentheses
//!    parse to the same query, so they must share a cache key
//!    (`meta-normalize`) and produce the same answer (`meta-spelling`).
//!    That a shared key means a shared parse is the property test
//!    `shared_key_means_shared_parse` in `s2s-core`.
//! 2. **Condition reordering** — `AND` is commutative for the
//!    condition tree, so permuting the `WHERE` leaves cannot change
//!    which individuals match.
//! 3. **Registration permutation** — the source registry and the
//!    mapping module key on ids/paths, not insertion order, so
//!    registering sources or attributes in a different order must not
//!    change the answer.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use s2s_core::query;

use crate::oracle::{fingerprint, Violation};
use crate::scenario::{render_condition, BuildConfig, Scenario, ATTRS};

/// Runs every metamorphic relation; `reference` is the fingerprint of
/// the canonical (batched-path) answer.
pub fn check_metamorphic(scenario: &Scenario, reference: &str) -> Vec<Violation> {
    let mut violations = Vec::new();
    let canonical = scenario.query_text();
    let mut rng = StdRng::seed_from_u64(scenario.seed ^ 0x5EED_5EED_5EED_5EED);

    // 1. Spelling variant.
    let variant = spelling_variant(scenario, &mut rng);
    if query::normalize(&variant) != query::normalize(&canonical) {
        violations.push(Violation {
            oracle: "meta-normalize".into(),
            detail: format!(
                "spelling variant normalizes differently\ncanonical: {canonical}\nvariant: {variant}"
            ),
        });
    } else {
        let engine = scenario.build(&BuildConfig::batched());
        let outcome = engine.query(&variant).expect("variant is equivalent S2SQL");
        if fingerprint(&outcome) != reference {
            violations.push(Violation {
                oracle: "meta-spelling".into(),
                detail: format!("spelling variant changed the answer: {variant}"),
            });
        }
    }

    // 2. Condition reordering (needs at least two conditions).
    if scenario.conditions.len() >= 2 {
        let mut reordered = scenario.conditions.clone();
        reordered.reverse();
        let mut text = String::from("SELECT watch");
        for (i, c) in reordered.iter().enumerate() {
            text.push_str(if i == 0 { " WHERE " } else { " AND " });
            text.push_str(&render_condition(c));
        }
        let engine = scenario.build(&BuildConfig::batched());
        let outcome = engine.query(&text).expect("reordered conditions stay valid");
        if fingerprint(&outcome) != reference {
            violations.push(Violation {
                oracle: "meta-condition-order".into(),
                detail: format!("reordering AND conditions changed the answer: {text}"),
            });
        }
    }

    // 3. Registration permutations.
    if scenario.sources.len() >= 2 {
        let mut order: Vec<usize> = (0..scenario.sources.len()).collect();
        order.reverse();
        let engine =
            scenario.build(&BuildConfig { source_order: Some(order), ..BuildConfig::batched() });
        let outcome = engine.query(&canonical).expect("same query, permuted registry");
        if fingerprint(&outcome) != reference {
            violations.push(Violation {
                oracle: "meta-source-order".into(),
                detail: "reversing source registration order changed the answer".into(),
            });
        }
    }
    let rotated = vec![1, 2, 0];
    let engine =
        scenario.build(&BuildConfig { attr_order: Some(rotated), ..BuildConfig::batched() });
    let outcome = engine.query(&canonical).expect("same query, permuted mappings");
    if fingerprint(&outcome) != reference {
        violations.push(Violation {
            oracle: "meta-attr-order".into(),
            detail: "rotating attribute registration order changed the answer".into(),
        });
    }

    violations
}

/// Whether the parser reads `value` back when it is written without
/// quotes: a number (sign, digits, dots) or a word of identifier
/// characters.
fn spells_bare(value: &str) -> bool {
    match value.as_bytes().first() {
        None => false,
        Some(b'0'..=b'9' | b'-' | b'+') => {
            value[1..].bytes().all(|b| b.is_ascii_digit() || b == b'.')
        }
        Some(_) => {
            value.bytes().all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
        }
    }
}

/// Rewrites the canonical query into another spelling of the same parse
/// (seeded): whitespace padding, keyword casing, `<>` for `!=`, each
/// constraint single-quoted, double-quoted or bare, and redundant
/// parentheses around leaves and the whole condition.
pub fn spelling_variant(scenario: &Scenario, rng: &mut StdRng) -> String {
    let pad = |rng: &mut StdRng| -> String {
        let n = rng.gen_range(1..4);
        (0..n).map(|_| if rng.gen_bool(0.8) { ' ' } else { '\t' }).collect()
    };
    let casing = |word: &str, rng: &mut StdRng| -> String {
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
    };
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
        let parens = if rng.gen_bool(0.3) { rng.gen_range(1..3) } else { 0 };
        text.push_str(&"(".repeat(parens));
        text.push_str(&format!("{}{}{op}{}{value}", ATTRS[c.attr], pad(rng), pad(rng)));
        text.push_str(&")".repeat(parens));
    }
    if wrap_all && !scenario.conditions.is_empty() {
        text.push(')');
    }
    text.push_str(&pad(rng));
    text
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
