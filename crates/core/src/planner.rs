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

/// A node of a folded condition, in prefix order: an operator's left
/// operand follows it.
#[derive(Debug, Clone, Copy)]
enum Node<'c> {
    /// A leaf no rule reads.
    False,
    /// The leaf tested on rule `j`'s value.
    Leaf(&'c ResolvedCondition, usize),
    Not,
    /// An `AND` whose right operand starts this many nodes after it.
    And(usize),
    /// An `OR`, as an `AND`.
    Or(usize),
}

/// A query's condition folded against one source's rules: a leaf on a
/// property none of them reads is `false`, and a leaf several read is
/// the `OR` of its tests on each. Empty, it binds nothing.
#[derive(Debug, Default)]
pub(crate) struct Fold<'c> {
    nodes: Vec<Node<'c>>,
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
        self.nodes.clear();
        self.build(tree, rules, &property);
    }

    fn build<'r>(
        &mut self,
        tree: &'c ConditionTree,
        rules: usize,
        property: &impl Fn(usize) -> &'r Iri,
    ) {
        let at = self.nodes.len();
        match tree {
            ConditionTree::Leaf(c) => {
                let readers = || (0..rules).filter(|&j| property(j) == &c.property);
                let n = readers().count();
                if n == 0 {
                    self.nodes.push(Node::False);
                }
                for (k, j) in readers().enumerate() {
                    if k + 1 < n {
                        self.nodes.push(Node::Or(2));
                    }
                    self.nodes.push(Node::Leaf(c, j));
                }
            }
            ConditionTree::Not(e) => {
                self.nodes.push(Node::Not);
                self.build(e, rules, property);
            }
            ConditionTree::And(a, b) | ConditionTree::Or(a, b) => {
                // Set once the left operand's length is known.
                self.nodes.push(Node::False);
                self.build(a, rules, property);
                let right = self.nodes.len() - at;
                self.build(b, rules, property);
                let and = matches!(tree, ConditionTree::And(..));
                self.nodes[at] = if and { Node::And(right) } else { Node::Or(right) };
            }
        }
    }

    /// Whether a condition is folded in.
    pub(crate) fn is_bound(&self) -> bool {
        !self.nodes.is_empty()
    }

    /// The leaves of the fold, one per rule a leaf is tested on.
    pub(crate) fn leaves(&self) -> impl Iterator<Item = &'c ResolvedCondition> + '_ {
        self.nodes.iter().filter_map(|n| if let Node::Leaf(c, _) = n { Some(*c) } else { None })
    }

    /// Whether a record satisfies the folded condition from node `at`
    /// on (`0`: all of it); `true` when none is folded in.
    /// `leaf(j, c)` says whether the record's value of rule `j`
    /// satisfies the leaf `c` ([`crate::query::condition_matches`] on
    /// its text, or on a number where that answers the same) — `false`
    /// when it has none; a single-record rule's one value is every
    /// record's. An operand is evaluated only when the one before it
    /// left its operator undecided.
    pub(crate) fn holds(
        &self,
        at: usize,
        leaf: &mut impl FnMut(usize, &ResolvedCondition) -> bool,
    ) -> bool {
        let Some(&node) = self.nodes.get(at) else { return true };
        match node {
            Node::False => false,
            Node::Leaf(c, j) => leaf(j, c),
            Node::Not => !self.holds(at + 1, leaf),
            Node::And(right) => self.holds(at + 1, leaf) && self.holds(at + right, leaf),
            Node::Or(right) => self.holds(at + 1, leaf) || self.holds(at + right, leaf),
        }
    }
}
