//! The federated pushdown planner (DESIGN.md §4j): each required
//! conjunct a source can evaluate natively is rewritten into its rules
//! by the source kind's wrapper (`WHERE` for SQL, an XPath predicate, a
//! WebL `Where` guard), projections drop whole extraction schemas, and
//! sources that cannot contribute to a required conjunct are pruned
//! before any wire exchange.
//!
//! Pushdown only ever removes records the residual filter (the full
//! condition tree, re-applied in [`crate::instance`]) removes anyway:
//! only conjuncts the whole tree implies are pushed, and each wrapper
//! pushes only what it proves equivalent to
//! [`crate::query::condition_matches`]. A pushed predicate filters a
//! source's *records*, so every rule of that source takes it or none
//! does (value lists stay aligned), and single-record sources never get
//! one (it would change which record is "first").

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use s2s_rdf::Iri;

use crate::extract::ExtractionSchema;
use crate::ledger::{self, SourceLedger};
use crate::mapping::{AttributeMapping, RecordScenario};
use crate::query::{ConditionTree, ResolvedCondition};
use crate::source::SourceRegistry;
use crate::wrapper;

/// The conjuncts implied by the whole tree: pushing one of these can
/// only drop records the residual filter drops too. `AND` contributes
/// the union of both sides, `OR` only what *both* sides require, `NOT`
/// nothing.
fn required_conjuncts(tree: &ConditionTree) -> Vec<&ResolvedCondition> {
    match tree {
        ConditionTree::Leaf(c) => vec![c],
        // Each side's list is already free of duplicates.
        ConditionTree::And(a, b) => {
            let mut v = required_conjuncts(a);
            for c in required_conjuncts(b) {
                if !v.contains(&c) {
                    v.push(c);
                }
            }
            v
        }
        ConditionTree::Or(a, b) => {
            let right = required_conjuncts(b);
            required_conjuncts(a).into_iter().filter(|c| right.contains(c)).collect()
        }
        ConditionTree::Not(_) => Vec::new(),
    }
}

/// Plans pushdown over the extraction schemas of one query: prunes
/// non-contributing sources, drops schemas outside the projection
/// keep-set, and rewrites each surviving source's rules to evaluate
/// every provably-equivalent required conjunct natively. Schemas come
/// back in their original order; what was done to each source goes to
/// its ledger row in `rows` (added when missing): whether it was
/// pruned, the conjuncts pushed, the schemas projected out.
pub fn plan_pushdown(
    registry: &SourceRegistry,
    schemas: &[ExtractionSchema],
    condition: Option<&ConditionTree>,
    projection: Option<&[Iri]>,
    rows: &mut Vec<SourceLedger>,
) -> Vec<ExtractionSchema> {
    if condition.is_none() && projection.is_none() {
        return schemas.to_vec();
    }
    let required = condition.map(required_conjuncts).unwrap_or_default();
    // The residual filter reads *every* condition leaf (not just the
    // required ones), so projection may only drop schemas outside
    // projection ∪ all-condition-properties.
    let keep_props: Option<BTreeSet<&Iri>> = projection.map(|p| {
        let mut set: BTreeSet<&Iri> = p.iter().collect();
        if let Some(tree) = condition {
            set.extend(tree.leaves().into_iter().map(|c| &c.property));
        }
        set
    });

    let mut groups: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    for (i, s) in schemas.iter().enumerate() {
        groups.entry(s.mapping.source().to_string()).or_default().push(i);
    }

    // Rewritten mapping (or None to keep) for every surviving index.
    let mut surviving: BTreeMap<usize, Option<Arc<AttributeMapping>>> = BTreeMap::new();

    for (source_id, indices) in &groups {
        let row = ledger::row(rows, source_id);
        let group: Vec<&AttributeMapping> = indices.iter().map(|&i| &*schemas[i].mapping).collect();
        let props: BTreeSet<&Iri> = group.iter().map(|m| m.property()).collect();

        // Capability pruning: a source that cannot supply a required
        // conjunct's property yields only individuals the residual
        // filter rejects, so skip its exchange entirely.
        if !required.is_empty() && required.iter().any(|c| !props.contains(&c.property)) {
            row.pruned = true;
            continue;
        }

        let keep = |s: &ExtractionSchema| {
            keep_props.as_ref().is_none_or(|set| set.contains(s.mapping.property()))
        };
        let kept_idx: Vec<usize> = indices.iter().copied().filter(|&i| keep(&schemas[i])).collect();

        let single = group.iter().any(|m| m.scenario() == RecordScenario::SingleRecord);
        let applicable: Vec<&ResolvedCondition> =
            required.iter().copied().filter(|c| props.contains(&c.property)).collect();

        let pushable = !single && !applicable.is_empty() && !kept_idx.is_empty();
        if let Some(source) = registry.get(&source_id.as_str().into()).filter(|_| pushable) {
            let connection = source.connection();
            let kept: Vec<&AttributeMapping> =
                kept_idx.iter().map(|&i| &*schemas[i].mapping).collect();
            if let Some((rules, pushed)) =
                wrapper::with(connection, |w| w.push(&group, &kept, &applicable))
            {
                // All-or-nothing: a rewritten rule that does not compile
                // (each conjunct deepens the rule, so one already at its
                // parser's nesting cap may) leaves the source unpushed
                // rather than failing at the source. Its compile is kept.
                let mappings: Option<Vec<_>> = kept_idx
                    .iter()
                    .zip(rules)
                    .map(|(&i, rule)| {
                        let mapping = schemas[i].mapping.with_rule(rule);
                        wrapper::compiled(connection, &mapping).is_ok().then(|| Arc::new(mapping))
                    })
                    .collect();
                if let Some(mappings) = mappings {
                    row.pushed = pushed.into_iter().map(describe).collect();
                    for (&i, mapping) in kept_idx.iter().zip(mappings) {
                        surviving.insert(i, Some(mapping));
                    }
                }
            }
        }
        for &i in &kept_idx {
            surviving.entry(i).or_insert(None);
        }
        row.projected_out = indices.len() - kept_idx.len();
    }

    let mut out = Vec::with_capacity(surviving.len());
    for (i, replacement) in surviving {
        out.push(match replacement {
            Some(mapping) => ExtractionSchema { mapping },
            None => schemas[i].clone(),
        });
    }
    out
}

fn describe(c: &ResolvedCondition) -> String {
    format!("{} {} {}", c.property.local_name(), c.op(), c.value())
}
