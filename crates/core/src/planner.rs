//! The federated pushdown planner.
//!
//! The paper's mediator always pulls every record of every mapped
//! source and filters after the fact. This module plans a cheaper
//! federation of the same query: each S2SQL conjunct that a source can
//! evaluate natively is rewritten *into* that source's extraction rule
//! (`WHERE` for SQL sources, an XPath predicate for XML sources, a
//! `Where` guard for WebL/regex sources), projections drop whole
//! extraction schemas, and sources whose mappings cannot contribute to
//! a required conjunct are pruned before any wire exchange.
//!
//! Safety model: pushdown only ever *removes* records that the
//! mediator's residual post-filter (the full condition tree, re-applied
//! in [`crate::instance`]) would remove anyway. Concretely, only
//! *required conjuncts* are pushed — leaves implied by the whole tree
//! (`required(AND) = union`, `required(OR) = intersection`,
//! `required(NOT) = ∅`) — and each per-kind rewrite is gated on exact
//! operator/typing parity with [`crate::query::condition_matches`]
//! semantics (XPath and WebL predicates *are* that function; SQL's typed
//! comparison is held to it by a differential property test). Anything
//! that cannot be proven equivalent stays in the residual; answers are
//! the same with the planner on or off up to individual IRIs, which
//! number the records a source shipped.
//!
//! Alignment: a pushed predicate filters the *records* of a source, so
//! every rule of that source must be rewritten with the same predicate
//! (value lists stay positionally aligned). Rewrites are therefore
//! all-or-nothing per source and kind; single-record sources never get
//! predicates pushed (filtering would change which record is "first").

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use s2s_minidb::{CmpOp, ColumnRef, DataType, Database, Expr, Operand, SelectStmt, Value};
use s2s_rdf::Iri;
use s2s_webdoc::{with_guards, GuardSpec};
use s2s_xml::push_child_predicate;

use crate::extract::ExtractionSchema;
use crate::mapping::{AttributeMapping, ExtractionRule, RecordScenario};
use crate::query::{CondOp, ConditionTree, ResolvedCondition};
use crate::rules::CompiledRule;
use crate::source::{Connection, SourceRegistry};

/// What the planner did to one surviving source.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SourcePlan {
    /// Human-readable pushed conjuncts (`"price < 100"`), in condition
    /// order. Empty when nothing could be pushed natively.
    pub pushed: Vec<String>,
    /// Extraction schemas still dispatched for this source.
    pub kept: usize,
    /// Schemas dropped because the projection (plus condition
    /// attributes) does not need them.
    pub projected_out: usize,
}

/// The explicit per-query federation plan: which sources were pruned
/// and what each surviving source evaluates natively.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PushdownPlan {
    /// Surviving sources, keyed by source id.
    pub sources: BTreeMap<String, SourcePlan>,
    /// Sources pruned outright: a required conjunct names a property
    /// the source does not map, so every record it could contribute
    /// would fail the residual filter anyway.
    pub pruned: Vec<String>,
}

impl PushdownPlan {
    /// Total conjuncts pushed into native rules, across sources.
    pub fn pushed_predicates(&self) -> u64 {
        self.sources.values().map(|s| s.pushed.len() as u64).sum()
    }

    /// Number of sources pruned before any wire exchange.
    pub fn pruned_sources(&self) -> u64 {
        self.pruned.len() as u64
    }
}

/// The conjuncts implied by the whole tree: pushing one of these can
/// only drop records the residual filter drops too. `AND` contributes
/// the union of both sides, `OR` only what *both* sides require, `NOT`
/// nothing.
fn required_conjuncts(tree: &ConditionTree) -> Vec<&ResolvedCondition> {
    fn dedup(mut v: Vec<&ResolvedCondition>) -> Vec<&ResolvedCondition> {
        let mut seen = Vec::new();
        v.retain(|c| {
            if seen.contains(c) {
                false
            } else {
                seen.push(c);
                true
            }
        });
        v
    }
    match tree {
        ConditionTree::Leaf(c) => vec![c],
        ConditionTree::And(a, b) => {
            let mut v = required_conjuncts(a);
            v.extend(required_conjuncts(b));
            dedup(v)
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
/// back in their original order.
pub fn plan_pushdown(
    registry: &SourceRegistry,
    schemas: &[ExtractionSchema],
    condition: Option<&ConditionTree>,
    projection: Option<&[Iri]>,
) -> (Vec<ExtractionSchema>, PushdownPlan) {
    if condition.is_none() && projection.is_none() {
        return (schemas.to_vec(), PushdownPlan::default());
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

    let mut plan = PushdownPlan::default();
    // Rewritten mapping (or None to keep) for every surviving index.
    let mut surviving: BTreeMap<usize, Option<Arc<AttributeMapping>>> = BTreeMap::new();

    for (source_id, indices) in &groups {
        let group: Vec<&ExtractionSchema> = indices.iter().map(|&i| &schemas[i]).collect();
        let props: BTreeSet<&Iri> = group.iter().map(|s| s.mapping.property()).collect();

        // Capability pruning: a source that cannot supply a required
        // conjunct's property yields only individuals the residual
        // filter rejects, so skip its exchange entirely.
        if !required.is_empty() && required.iter().any(|c| !props.contains(&c.property)) {
            plan.pruned.push(source_id.clone());
            continue;
        }

        let keep = |s: &ExtractionSchema| {
            keep_props.as_ref().is_none_or(|set| set.contains(s.mapping.property()))
        };
        let kept_idx: Vec<usize> = indices.iter().copied().filter(|&i| keep(&schemas[i])).collect();

        let single = group.iter().any(|s| s.mapping.scenario() == RecordScenario::SingleRecord);
        let applicable: Vec<&ResolvedCondition> =
            required.iter().copied().filter(|c| props.contains(&c.property)).collect();

        let mut pushed_desc = Vec::new();
        if !single && !applicable.is_empty() && !kept_idx.is_empty() {
            let kept: Vec<&ExtractionSchema> = kept_idx.iter().map(|&i| &schemas[i]).collect();
            let rewritten =
                registry.get(&source_id.as_str().into()).and_then(|source| {
                    match source.connection() {
                        Connection::Database { db } => rewrite_db(db, &group, &kept, &applicable),
                        Connection::Xml { .. } => rewrite_xml(&group, &kept, &applicable),
                        Connection::Web { .. } | Connection::Text { .. } => {
                            rewrite_webl(&group, &kept, &applicable)
                        }
                    }
                });
            // All-or-nothing: a rewritten rule that does not compile
            // (each conjunct deepens the rule, so one already at its
            // parser's nesting cap may) leaves the source unpushed
            // rather than failing at the source. Its compile is kept.
            let rewritten = rewritten.and_then(|(new_rules, desc)| {
                let mappings = kept_idx
                    .iter()
                    .zip(new_rules)
                    .map(|(&i, rule)| {
                        let mapping = schemas[i].mapping.with_rule(rule);
                        mapping.compiled().is_ok().then(|| Arc::new(mapping))
                    })
                    .collect::<Option<Vec<_>>>()?;
                Some((mappings, desc))
            });
            if let Some((mappings, desc)) = rewritten {
                pushed_desc = desc;
                for (&i, mapping) in kept_idx.iter().zip(mappings) {
                    surviving.insert(i, Some(mapping));
                }
            }
        }
        for &i in &kept_idx {
            surviving.entry(i).or_insert(None);
        }
        plan.sources.insert(
            source_id.clone(),
            SourcePlan {
                pushed: pushed_desc,
                kept: kept_idx.len(),
                projected_out: indices.len() - kept_idx.len(),
            },
        );
    }

    let mut out = Vec::with_capacity(surviving.len());
    for (i, replacement) in surviving {
        out.push(match replacement {
            Some(mapping) => ExtractionSchema { mapping },
            None => schemas[i].clone(),
        });
    }
    (out, plan)
}

fn describe(c: &ResolvedCondition) -> String {
    format!("{} {} {}", c.property.local_name(), c.op(), c.value())
}

fn cmp_of(op: CondOp) -> Option<CmpOp> {
    match op {
        CondOp::Eq => Some(CmpOp::Eq),
        CondOp::Ne => Some(CmpOp::Ne),
        CondOp::Lt => Some(CmpOp::Lt),
        CondOp::Le => Some(CmpOp::Le),
        CondOp::Gt => Some(CmpOp::Gt),
        CondOp::Ge => Some(CmpOp::Ge),
        CondOp::Like => None,
    }
}

/// 2^53: every integer below it in magnitude is an exact `f64`.
const MAX_EXACT: f64 = 9_007_199_254_740_992.0;

/// Rewrites a database source's rules: every kept rule must be a
/// single-column scan of the same table with the same ordering; each
/// applicable conjunct becomes a typed `WHERE` term when the column
/// type reproduces the mediator's numeric-else-string comparison. The
/// statements come from the mappings' compiled rules, so nothing is
/// parsed here.
fn rewrite_db(
    db: &Database,
    group: &[&ExtractionSchema],
    kept: &[&ExtractionSchema],
    conjuncts: &[&ResolvedCondition],
) -> Option<(Vec<ExtractionRule>, Vec<String>)> {
    let mut stmts: Vec<(&SelectStmt, &str)> = Vec::with_capacity(kept.len());
    for s in kept {
        let Ok(CompiledRule::Sql { stmt, column }) = s.mapping.compiled() else { return None };
        if !stmt.pushdown_eligible() {
            return None;
        }
        stmts.push((stmt, column));
    }
    let (first, _) = stmts.first()?;
    if stmts.iter().any(|(s, _)| s.table != first.table || s.order_by != first.order_by) {
        return None;
    }
    let table = db.table(&first.table)?.schema().clone();
    // Guard columns may come from schemas the projection dropped: the
    // predicate runs over table rows, not over shipped sections.
    let column_of = |prop: &Iri| -> Option<&str> {
        group.iter().find_map(|s| match (s.mapping.property() == prop, s.mapping.rule()) {
            (true, ExtractionRule::Sql { column, .. }) => Some(column.as_str()),
            _ => None,
        })
    };

    let mut exprs = Vec::new();
    let mut desc = Vec::new();
    for c in conjuncts {
        let Some(column) = column_of(&c.property) else { continue };
        let Some(idx) = table.column_index(column) else { continue };
        let number = c.value().parse::<f64>().ok();
        let expr = match (table.columns()[idx].data_type(), c.op(), number) {
            // LIKE is text pattern matching on both sides.
            (DataType::Text, CondOp::Like, _) => Expr::Like {
                column: ColumnRef::new(column),
                pattern: c.value().to_string(),
                negated: false,
            },
            // Numeric column + numeric literal: SQL compares
            // numerically, exactly like the mediator's f64 path — for a
            // literal SQL can spell (`inf` and `NaN` would re-parse as
            // column names) and `f64` holds exactly (past 2^53 SQL's
            // exact integer comparison and the f64 one part ways).
            (DataType::Integer | DataType::Real, op, Some(n)) if n.abs() < MAX_EXACT => {
                let value = c.value().parse::<i64>().map_or(Value::Float(n), Value::Int);
                Expr::Compare {
                    left: ColumnRef::new(column),
                    op: cmp_of(op)?,
                    right: Operand::Literal(value),
                }
            }
            // Text column + non-numeric literal: both sides compare
            // as strings. A numeric-looking literal would make the
            // mediator compare numerically while SQL compares text,
            // so it stays in the residual.
            (DataType::Text, op, None) => Expr::Compare {
                left: ColumnRef::new(column),
                op: cmp_of(op)?,
                right: Operand::Literal(Value::Text(c.value().to_string())),
            },
            _ => continue,
        };
        desc.push(describe(c));
        exprs.push(expr);
    }
    if exprs.is_empty() {
        return None;
    }
    let rules = stmts
        .into_iter()
        .map(|(stmt, column)| {
            let pushed = exprs.iter().cloned().fold(stmt.clone(), |s, e| s.and_predicate(e));
            ExtractionRule::Sql { query: pushed.to_sql(), column: column.to_string() }
        })
        .collect();
    Some((rules, desc))
}

/// Rewrites an XML source's rules by splicing `[guard op 'value']`
/// record predicates into every kept XPath. Equality stays residual
/// for numeric-looking literals (XPath `=` is string equality here);
/// ordered comparisons reuse the mediator's numeric-else-string
/// constraint semantics.
fn rewrite_xml(
    group: &[&ExtractionSchema],
    kept: &[&ExtractionSchema],
    conjuncts: &[&ResolvedCondition],
) -> Option<(Vec<ExtractionRule>, Vec<String>)> {
    let mut paths: Vec<String> = Vec::with_capacity(kept.len());
    for s in kept {
        let ExtractionRule::XPath { path } = s.mapping.rule() else { return None };
        paths.push(path.clone());
    }
    let guard_of = |prop: &Iri| -> Option<String> {
        group.iter().find_map(|s| match (s.mapping.property() == prop, s.mapping.rule()) {
            (true, ExtractionRule::XPath { path }) => path
                .strip_suffix("/text()")
                .and_then(|p| p.rsplit('/').next())
                .map(|s: &str| s.to_string()),
            _ => None,
        })
    };

    let mut desc = Vec::new();
    for c in conjuncts {
        if c.op() == CondOp::Like {
            continue;
        }
        if c.op() == CondOp::Eq && c.value().parse::<f64>().is_ok() {
            continue;
        }
        let Some(guard) = guard_of(&c.property) else { continue };
        // All-or-nothing per conjunct: every rule of the source must
        // accept the splice or value lists would misalign.
        let Ok(next) = paths
            .iter()
            .map(|p| push_child_predicate(p, &guard, c.op(), c.value()))
            .collect::<Result<Vec<_>, _>>()
        else {
            continue;
        };
        paths = next;
        desc.push(describe(c));
    }
    if desc.is_empty() {
        return None;
    }
    Some((paths.into_iter().map(|path| ExtractionRule::XPath { path }).collect(), desc))
}

/// Converts a web/text rule into WebL program text the guard rewriter
/// can compose. `Extract(StripTags(PAGE), …)` reproduces the
/// mediator's regex-over-`doc.text()` path exactly (StripTags yields
/// parsed text for HTML pages and the raw source for plain text).
fn webl_text_of(rule: &ExtractionRule) -> Option<String> {
    match rule {
        ExtractionRule::Webl { program } => Some(program.clone()),
        // Pattern literals are raw until the closing backtick — a
        // backtick in the pattern cannot be rendered back.
        ExtractionRule::TextRegex { pattern, group } if !pattern.contains('`') => {
            Some(format!("Extract(StripTags(PAGE), `{pattern}`, {group});"))
        }
        _ => None,
    }
}

/// Rewrites a web or plain-text source's rules: each kept program is
/// masked by `Where` guards that re-run the guard attribute's own
/// program and keep only positions satisfying the conjunct — one
/// composed rewrite per rule so every mask stays aligned.
fn rewrite_webl(
    group: &[&ExtractionSchema],
    kept: &[&ExtractionSchema],
    conjuncts: &[&ResolvedCondition],
) -> Option<(Vec<ExtractionRule>, Vec<String>)> {
    let targets: Vec<String> =
        kept.iter().map(|s| webl_text_of(s.mapping.rule())).collect::<Option<_>>()?;
    let guard_of = |prop: &Iri| -> Option<String> {
        group.iter().find_map(|s| {
            if s.mapping.property() == prop {
                webl_text_of(s.mapping.rule())
            } else {
                None
            }
        })
    };

    let mut guards: Vec<(String, &ResolvedCondition)> = Vec::new();
    let mut desc = Vec::new();
    for &c in conjuncts {
        let Some(guard) = guard_of(&c.property) else { continue };
        guards.push((guard, c));
        desc.push(describe(c));
    }
    if guards.is_empty() {
        return None;
    }
    let specs: Vec<GuardSpec<'_>> =
        guards.iter().map(|(g, c)| (g.as_str(), c.op(), c.value())).collect();
    // All-or-nothing for the whole source: a rule that cannot take the
    // guard set leaves the source un-pushed rather than misaligned.
    let programs =
        targets.iter().map(|t| with_guards(t, &specs)).collect::<Result<Vec<_>, _>>().ok()?;
    Some((programs.into_iter().map(|program| ExtractionRule::Webl { program }).collect(), desc))
}
