//! The federated pushdown planner (DESIGN.md §4j). Before the views see
//! a query's schemas, [`prune`] skips the sources that cannot contribute
//! to a required conjunct and drops the schemas neither the projection
//! nor the condition reads. After the view partition, a [`Bind`] binds
//! to each wire-bound source's record statement the required conjuncts
//! it can test; the source's wrapper applies them as a filter
//! ([`crate::wrapper::Filter`]). Nothing is rewritten: a rule, its
//! compiled form and its view key are the same for every query.
//!
//! A bound conjunct only ever removes records the residual filter (the
//! full condition tree, re-applied in [`crate::instance`]) removes
//! anyway: only conjuncts the whole tree implies are bound, each is
//! tested with the residual's own [`crate::query::condition_matches`] on
//! the text the residual would see, and a kept record keeps its number.
//! A conjunct filters a source's *records*, so it is bound only where
//! exactly one rule of the source reads its property, never to a
//! single-record source (its one value applies to every record), and
//! never in an engine with views, which hold a source's slices whole.

use s2s_rdf::Iri;

use crate::extract::ExtractionSchema;
use crate::ledger::{self, Pushed, SourceLedger, Unfiltered};
use crate::mapping::{AttributeMapping, RecordScenario};
use crate::query::{ConditionTree, ResolvedCondition};

/// The leaves the whole tree implies, as the set of their positions
/// among the first 64 ([`ConditionTree::leaves`] order): filtering by
/// one of these can only drop records the residual filter drops too.
/// `AND` contributes what either side requires, `OR` what both do, `NOT`
/// nothing. A leaf stands at the position of the first leaf equal to it,
/// so both sides of an `OR` can require the same conjunct.
fn required(tree: &ConditionTree) -> u64 {
    fn walk(root: &ConditionTree, tree: &ConditionTree) -> u64 {
        match tree {
            ConditionTree::Leaf(c) => bit(first(root, c)),
            ConditionTree::And(a, b) => walk(root, a) | walk(root, b),
            ConditionTree::Or(a, b) => walk(root, a) & walk(root, b),
            ConditionTree::Not(_) => 0,
        }
    }
    walk(tree, tree)
}

/// The position of the first leaf of `tree` equal to `c`, or 64 when
/// none of the first 64 is: the search stops there.
fn first(tree: &ConditionTree, c: &ResolvedCondition) -> usize {
    // Whether the search is over.
    fn walk(tree: &ConditionTree, c: &ResolvedCondition, next: &mut usize) -> bool {
        match tree {
            ConditionTree::Leaf(leaf) if leaf == c => true,
            ConditionTree::Leaf(_) => {
                *next += 1;
                *next == 64
            }
            ConditionTree::And(a, b) | ConditionTree::Or(a, b) => {
                walk(a, c, next) || walk(b, c, next)
            }
            ConditionTree::Not(e) => walk(e, c, next),
        }
    }
    let mut next = 0;
    walk(tree, c, &mut next);
    next
}

/// The positions, among the first 64, of the leaves on `property`.
fn on(tree: &ConditionTree, property: &Iri) -> u64 {
    fn walk(tree: &ConditionTree, property: &Iri, next: &mut usize) -> u64 {
        match tree {
            ConditionTree::Leaf(c) => {
                *next += 1;
                if &c.property == property {
                    bit(*next - 1)
                } else {
                    0
                }
            }
            ConditionTree::And(a, b) | ConditionTree::Or(a, b) => {
                walk(a, property, next) | walk(b, property, next)
            }
            ConditionTree::Not(e) => walk(e, property, next),
        }
    }
    walk(tree, property, &mut 0)
}

/// The bit of leaf position `k`; none past 64.
fn bit(k: usize) -> u64 {
    u32::try_from(k).ok().and_then(|k| 1u64.checked_shl(k)).unwrap_or(0)
}

/// The position of `source`'s row in `rows`, which hold one per source
/// of the query's schemas in id order; `at` as [`ledger::seek`] takes it.
fn row_of(rows: &[SourceLedger], source: &str, at: &mut usize) -> usize {
    ledger::seek(rows, source, at).expect("a row per source")
}

/// Prunes the sources of `schemas` that cannot supply a required
/// conjunct's property — they yield only individuals the residual
/// filter rejects — and drops the schemas outside the projection and the
/// condition's properties. Schemas come back in their original order;
/// each source's row in `rows` (one per source of `schemas`, in id
/// order) says whether it was pruned and how many of its schemas the
/// projection dropped.
pub(crate) fn prune(
    mut schemas: Vec<ExtractionSchema>,
    condition: Option<&ConditionTree>,
    projection: Option<&[Iri]>,
    rows: &mut [SourceLedger],
) -> Vec<ExtractionSchema> {
    let required = condition.map_or(0, required);
    if required == 0 && projection.is_none() {
        return schemas;
    }
    // The residual filter reads *every* condition leaf (not just the
    // required ones, nor only the first 64), so projection may only drop
    // schemas outside projection ∪ all-condition-properties.
    let read = projection.and(condition).map(ConditionTree::leaves).unwrap_or_default();
    let kept = |property: &Iri| {
        projection
            .is_none_or(|p| p.contains(property) || read.iter().any(|c| &c.property == property))
    };
    // The required leaves each source's rules read.
    let (mut carried, mut at) = (vec![0u64; rows.len()], usize::MAX);
    if let Some(tree) = condition.filter(|_| required != 0) {
        for s in &schemas {
            carried[row_of(rows, s.mapping.source().as_str(), &mut at)] |=
                on(tree, s.mapping.property());
        }
    }
    let mut pruned = false;
    for (row, carried) in rows.iter_mut().zip(carried) {
        row.pruned = carried & required != required;
        pruned |= row.pruned;
    }
    if pruned || projection.is_some() {
        schemas.retain(|s| {
            let row = &mut rows[row_of(rows, s.mapping.source().as_str(), &mut at)];
            let keep = !row.pruned && kept(s.mapping.property());
            row.projected_out += usize::from(!row.pruned && !keep);
            keep
        });
    }
    schemas
}

/// What a query's condition lets a wire-bound source filter by: the
/// condition's leaves and the positions of the ones it requires. An
/// engine with views binds nothing: its views hold slices whole.
#[derive(Debug)]
pub(crate) struct Bind<'p> {
    leaves: Vec<&'p ResolvedCondition>,
    required: u64,
    views: bool,
}

impl<'p> Bind<'p> {
    pub(crate) fn new(condition: &'p ConditionTree, views: bool) -> Self {
        let (leaves, required) = match views {
            true => (Vec::new(), 0),
            false => (condition.leaves(), required(condition)),
        };
        Bind { leaves, required, views }
    }

    /// Binds to a source whose rules are `mappings` each required leaf
    /// whose property exactly one of them reads, with that rule's
    /// position, into `conjuncts`; returns the leaves' positions, or why
    /// none is bound. A single-record rule's one value applies to every
    /// record, so its source binds nothing.
    pub(crate) fn to(
        &self,
        mappings: &[&AttributeMapping],
        conjuncts: &mut Vec<(usize, &'p ResolvedCondition)>,
    ) -> Result<Pushed, Unfiltered> {
        if self.views {
            return Err(Unfiltered::Views);
        }
        if mappings.iter().any(|m| m.scenario() == RecordScenario::SingleRecord) {
            return Err(Unfiltered::SingleRecord);
        }
        let mut pushed = 0;
        for k in Pushed::of(self.required).iter() {
            let c = self.leaves[k];
            let mut readers =
                (0..mappings.len()).filter(|&j| mappings[j].property() == &c.property);
            if let (Some(j), None) = (readers.next(), readers.next()) {
                conjuncts.push((j, c));
                pushed |= 1 << k;
            }
        }
        match pushed {
            0 => Err(Unfiltered::NoConjunct),
            bits => Ok(Pushed::of(bits)),
        }
    }
}
