//! The federated pushdown planner (DESIGN.md §4j). Before the views see
//! a query's schemas, [`prune`] skips the sources that map no rule of a
//! property the condition requires and drops the schemas neither the
//! projection nor the condition reads. After the view partition, a
//! [`Bind`] folds the whole condition against each wire-bound source's
//! rules ([`Fold`]); the source's wrapper tests each record with it
//! ([`crate::wrapper::Filter`]), and what it keeps is the source's part
//! of the answer. Nothing is rewritten: a rule, its compiled form and
//! its view key are the same for every query.
//!
//! [`Fold::holds`] is the one evaluation of a condition against a
//! record: the wrappers' filters call it, and so does the Instance
//! Generator for the sources that ran unfiltered (views, several
//! statements, columns that do not line up). [`ConditionTree::matches`]
//! stays its definition.

use s2s_rdf::Iri;

use crate::extract::ExtractionSchema;
use crate::ledger::{self, Pushed, SourceLedger, Unfiltered};
use crate::mapping::AttributeMapping;
use crate::query::{ConditionTree, ResolvedCondition};

/// The properties every record the tree selects has a value of, each
/// as the position of its first leaf among the first 64
/// ([`ConditionTree::leaves`] order): a leaf on a property a source does
/// not map folds to `false` ([`Fold`]), so a source lacking one of these
/// yields nothing the condition keeps. A leaf requires its property,
/// `AND` what either side requires, `OR` what both do, `NOT` nothing.
fn required(tree: &ConditionTree) -> u64 {
    fn walk(root: &ConditionTree, tree: &ConditionTree) -> u64 {
        match tree {
            ConditionTree::Leaf(c) => bit(first(root, &c.property)),
            ConditionTree::And(a, b) => walk(root, a) | walk(root, b),
            ConditionTree::Or(a, b) => walk(root, a) & walk(root, b),
            ConditionTree::Not(_) => 0,
        }
    }
    walk(tree, tree)
}

/// The position of the first leaf of `tree` on `property`, or 64 when
/// none of the first 64 is: the search stops there.
fn first(tree: &ConditionTree, property: &Iri) -> usize {
    // Whether the search is over.
    fn walk(tree: &ConditionTree, property: &Iri, next: &mut usize) -> bool {
        match tree {
            ConditionTree::Leaf(leaf) if &leaf.property == property => true,
            ConditionTree::Leaf(_) => {
                *next += 1;
                *next == 64
            }
            ConditionTree::And(a, b) | ConditionTree::Or(a, b) => {
                walk(a, property, next) || walk(b, property, next)
            }
            ConditionTree::Not(e) => walk(e, property, next),
        }
    }
    let mut next = 0;
    walk(tree, property, &mut next);
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

/// Prunes the sources of `schemas` that map no rule of a required
/// property — they yield only individuals the condition rejects — and
/// drops the schemas outside the projection and the condition's
/// properties. Schemas come back in their original order;
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
    // A source's filter reads *every* condition leaf (not just the
    // required ones, nor only the first 64), so projection may only drop
    // schemas outside projection ∪ all-condition-properties.
    let read = projection.and(condition).map(ConditionTree::leaves).unwrap_or_default();
    let kept = |property: &Iri| {
        projection
            .is_none_or(|p| p.contains(property) || read.iter().any(|c| &c.property == property))
    };
    // The required properties each source's rules read.
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

/// What a query's condition lets a wire-bound source filter by. An
/// engine with views binds nothing: its views hold slices whole.
#[derive(Debug)]
pub(crate) struct Bind<'p> {
    pub(crate) condition: &'p ConditionTree,
    pub(crate) views: bool,
}

impl<'p> Bind<'p> {
    /// Folds the condition against `mappings`, a source's rules, into
    /// `fold`; returns the leaves it tests, or why the source binds
    /// nothing.
    pub(crate) fn to(
        &self,
        mappings: &[&AttributeMapping],
        fold: &mut Fold<'p>,
    ) -> Result<Pushed, Unfiltered> {
        if self.views {
            return Err(Unfiltered::Views);
        }
        fold.fold(self.condition, mappings.len(), |j| mappings[j].property());
        let read = mappings.iter().map(|m| on(self.condition, m.property()));
        Ok(Pushed::of(read.fold(0, |bits, on| bits | on)))
    }
}

/// One test of a folded condition: leaf `leaf` on rule `rule`'s value —
/// none for a leaf no rule reads, which fails — and the test to go to
/// next when it passes and when it fails, or [`ACCEPT`] / [`REJECT`].
#[derive(Debug, Clone, Copy)]
struct Test<'c> {
    leaf: Option<&'c ResolvedCondition>,
    rule: u32,
    then: u32,
    otherwise: u32,
}

/// The targets that end a record's test.
const ACCEPT: u32 = u32::MAX;
const REJECT: u32 = u32::MAX - 1;

/// A query's condition folded against one source's rules: a leaf on a
/// property none of them reads is `false`, and a leaf several read is
/// the `OR` of its tests on each. It is held as a jump program: one
/// test per leaf and rule, in the leaves' order, each naming where a
/// pass and a failure go, so `AND`, `OR` and `NOT` are targets and a
/// record is tested by a loop. Empty, it binds nothing.
#[derive(Debug, Default)]
pub(crate) struct Fold<'c> {
    program: Vec<Test<'c>>,
}

impl<'c> Fold<'c> {
    /// Folds `tree` against `rules` rules, rule `j` reading
    /// `property(j)`, in place of what the fold held.
    pub(crate) fn fold<'r>(
        &mut self,
        tree: &'c ConditionTree,
        rules: usize,
        property: impl Fn(usize) -> &'r Iri,
    ) {
        self.program.clear();
        // Built from the last leaf back, so that an operand's targets
        // exist before it: then every test is renumbered from the front.
        self.build(tree, rules, &property, ACCEPT, REJECT);
        let last = self.last();
        let front = |target: u32| if target >= REJECT { target } else { last - target };
        self.program.reverse();
        for test in &mut self.program {
            (test.then, test.otherwise) = (front(test.then), front(test.otherwise));
        }
    }

    /// Appends the tests of `tree`, the last first, whose verdict goes
    /// to `then` or `otherwise`; returns where its first test is.
    fn build<'r>(
        &mut self,
        tree: &'c ConditionTree,
        rules: usize,
        property: &impl Fn(usize) -> &'r Iri,
        then: u32,
        otherwise: u32,
    ) -> u32 {
        match tree {
            ConditionTree::Leaf(c) => {
                let mut readers = (0..rules).rev().filter(|&j| property(j) == &c.property);
                let Some(last) = readers.next() else {
                    return self.push(None, 0, then, otherwise);
                };
                let mut first = self.push(Some(c), last, then, otherwise);
                for j in readers {
                    first = self.push(Some(c), j, then, first);
                }
                first
            }
            ConditionTree::Not(e) => self.build(e, rules, property, otherwise, then),
            ConditionTree::And(a, b) => {
                let b = self.build(b, rules, property, then, otherwise);
                self.build(a, rules, property, b, otherwise)
            }
            ConditionTree::Or(a, b) => {
                let b = self.build(b, rules, property, then, otherwise);
                self.build(a, rules, property, then, b)
            }
        }
    }

    fn push(
        &mut self,
        leaf: Option<&'c ResolvedCondition>,
        rule: usize,
        then: u32,
        otherwise: u32,
    ) -> u32 {
        let rule = u32::try_from(rule).expect("rules fit in u32");
        self.program.push(Test { leaf, rule, then, otherwise });
        self.last()
    }

    /// Where the last test is; a target below the ends.
    fn last(&self) -> u32 {
        let last = u32::try_from(self.program.len() - 1).ok().filter(|&last| last < REJECT);
        last.expect("a condition's tests number fewer than the targets")
    }

    /// Whether a condition is folded in.
    pub(crate) fn is_bound(&self) -> bool {
        !self.program.is_empty()
    }

    /// The leaves of the fold, one per rule a leaf is tested on, in
    /// the condition's order.
    pub(crate) fn leaves(&self) -> impl Iterator<Item = &'c ResolvedCondition> + '_ {
        self.program.iter().filter_map(|test| test.leaf)
    }

    /// Whether a record satisfies the folded condition; `true` when
    /// none is folded in. `leaf(j, c)` says whether the record's value
    /// of rule `j` satisfies the leaf `c` ([`crate::query::condition_matches`]
    /// on its text, or on a number where that answers the same) —
    /// `false` when it has none; a single-record rule's one value is
    /// every record's. An operand is tested only when the one before it left
    /// its operator undecided, as [`ConditionTree::matches`] evaluates.
    pub(crate) fn holds(&self, leaf: &mut impl FnMut(usize, &ResolvedCondition) -> bool) -> bool {
        if self.program.is_empty() {
            return true;
        }
        let mut at = 0;
        loop {
            let test = self.program[at];
            let pass = test.leaf.is_some_and(|c| leaf(test.rule as usize, c));
            match if pass { test.then } else { test.otherwise } {
                ACCEPT => return true,
                REJECT => return false,
                next => at = next as usize,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use s2s_textmatch::ValueSpace;

    use super::*;
    use crate::query::{condition_matches, CondOp};

    const VALUES: [&str; 5] = ["1", "2", "10", "x", ""];

    /// A random tree of `NOT`/`AND`/`OR` up to `depth` deep over
    /// `properties`.
    fn tree(rng: &mut StdRng, properties: &[Iri], depth: usize) -> ConditionTree {
        let pick = |rng: &mut StdRng, n: usize| rng.gen_range(0..n);
        let operator = if depth == 0 { 3 } else { pick(rng, 5) };
        let operand = |rng: &mut StdRng| Box::new(tree(rng, properties, depth - 1));
        match operator {
            0 => ConditionTree::Not(operand(rng)),
            1 => ConditionTree::And(operand(rng), operand(rng)),
            2 => ConditionTree::Or(operand(rng), operand(rng)),
            _ => {
                let ops = [CondOp::Eq, CondOp::Ne, CondOp::Lt, CondOp::Ge, CondOp::Like];
                let space = [ValueSpace::String, ValueSpace::Decimal][pick(rng, 2)];
                let property = properties[pick(rng, properties.len())].clone();
                let value = VALUES[pick(rng, VALUES.len())];
                ConditionTree::Leaf(ResolvedCondition::new(
                    property,
                    ops[pick(rng, ops.len())],
                    value,
                    space,
                ))
            }
        }
    }

    /// The recursive evaluation the program replaced: a leaf is the
    /// `OR` of its tests on each rule reading it, in rule order.
    fn reference(
        tree: &ConditionTree,
        readers: &[&Iri],
        leaf: &mut impl FnMut(usize, &ResolvedCondition) -> bool,
    ) -> bool {
        match tree {
            ConditionTree::Leaf(c) => {
                (0..readers.len()).filter(|&j| readers[j] == &c.property).any(|j| leaf(j, c))
            }
            ConditionTree::Not(e) => !reference(e, readers, leaf),
            ConditionTree::And(a, b) => reference(a, readers, leaf) && reference(b, readers, leaf),
            ConditionTree::Or(a, b) => reference(a, readers, leaf) || reference(b, readers, leaf),
        }
    }

    /// The reference's leaves: each leaf of the tree once per rule
    /// reading it, in the tree's order.
    fn reference_leaves(tree: &ConditionTree, readers: &[&Iri]) -> Vec<*const ResolvedCondition> {
        let mut out = Vec::new();
        for c in tree.leaves() {
            out.extend(readers.iter().filter(|&&p| p == &c.property).map(|_| c as *const _));
        }
        out
    }

    /// The jump program gives the recursive evaluation's verdict after
    /// the same leaf calls, in the same order, and reports the same
    /// leaves, over 20 000 seeded trees up to 4 deep whose leaves are
    /// read by 0 to 3 rules, some of one record.
    #[test]
    fn the_fold_program_agrees_with_the_recursive_reference() {
        let properties: Vec<Iri> =
            (0..4).map(|p| Iri::new(format!("http://fold.example/p{p}")).unwrap()).collect();
        let mut rng = StdRng::seed_from_u64(0x5eed_f01d);
        let (mut accepted, mut unread) = (0, 0);
        for case in 0..20_000 {
            let tree = tree(&mut rng, &properties, 4);
            // Up to 3 rules on each of the first three properties; the
            // fourth is read by none.
            let mut readers: Vec<&Iri> = Vec::new();
            for _ in 0..rng.gen_range(0..8) {
                let p = &properties[rng.gen_range(0..3)];
                if readers.iter().filter(|&&q| q == p).count() < 3 {
                    readers.push(p);
                }
            }
            let single: Vec<bool> = readers.iter().map(|_| rng.gen_range(0..4) == 0).collect();
            let records = 1 + rng.gen_range(0..4);
            let columns: Vec<Vec<Option<&str>>> = readers
                .iter()
                .map(|_| {
                    let value = |rng: &mut StdRng| {
                        (rng.gen_range(0..6) > 0).then(|| VALUES[rng.gen_range(0..VALUES.len())])
                    };
                    (0..records).map(|_| value(&mut rng)).collect()
                })
                .collect();
            let mut fold = Fold::default();
            fold.fold(&tree, readers.len(), |j| readers[j]);
            assert!(fold.is_bound());
            let leaves: Vec<*const ResolvedCondition> =
                fold.leaves().map(|c| c as *const _).collect();
            assert_eq!(leaves, reference_leaves(&tree, &readers), "case {case}: {tree:?}");
            unread += usize::from(leaves.len() < tree.leaves().len());
            for record in 0..records {
                let value = |j: usize| columns[j][if single[j] { 0 } else { record }];
                let mut calls = (Vec::new(), Vec::new());
                let leaf = |calls: &mut Vec<_>, j: usize, c: &ResolvedCondition| {
                    calls.push((j, c as *const ResolvedCondition));
                    value(j).is_some_and(|v| condition_matches(c, v))
                };
                let got = fold.holds(&mut |j, c| leaf(&mut calls.0, j, c));
                let want = reference(&tree, &readers, &mut |j, c| leaf(&mut calls.1, j, c));
                assert_eq!(got, want, "case {case}, record {record}: {tree:?}");
                assert_eq!(calls.0, calls.1, "case {case}, record {record}: {tree:?}");
                accepted += usize::from(got);
            }
        }
        // Both verdicts, and leaves no rule reads, come up often.
        assert!(accepted > 10_000 && unread > 2_000, "{accepted} accepted, {unread} unread");
    }
}
