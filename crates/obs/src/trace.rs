//! Span-based trace trees for a single query.
//!
//! A [`Trace`] is a tree of [`Span`]s mirroring the pipeline:
//!
//! ```text
//! query
//! ├── parse
//! ├── plan
//! ├── map            (schema mapping + view partition)
//! ├── pushdown       (only when the planner ran)
//! └── batch[source]  (one per wire exchange: a source's rules)
//!     ├── rule[attr]    (wrapper execution)
//!     └── attempt[endpoint]  (one per endpoint tried, incl. rejections)
//! ```
//!
//! Spans are plain owned values, **not** handles into a shared sink:
//! each wire leg builds its span list locally and hands it, with its
//! result, to the collection loop on the same thread, so no lock is
//! involved and span order is as deterministic as the batch plan itself.

/// What stage of the pipeline a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// The whole query, root of the tree.
    Query,
    /// S2SQL parsing.
    Parse,
    /// Ontology-path mapping and view partition.
    Map,
    /// Extraction planning (grouping, cost estimates, LPT order).
    Plan,
    /// Federated pushdown planning (predicate/projection rewriting and
    /// source pruning).
    Pushdown,
    /// One wire exchange: a source's coalesced rules.
    Batch,
    /// One endpoint tried during a batch exchange.
    Attempt,
    /// One extraction rule executed by a wrapper.
    Rule,
}

impl SpanKind {
    /// Stable lowercase name used by every exporter.
    pub fn as_str(self) -> &'static str {
        match self {
            SpanKind::Query => "query",
            SpanKind::Parse => "parse",
            SpanKind::Map => "map",
            SpanKind::Plan => "plan",
            SpanKind::Pushdown => "pushdown",
            SpanKind::Batch => "batch",
            SpanKind::Attempt => "attempt",
            SpanKind::Rule => "rule",
        }
    }

    /// Parses the exporter name back; `None` for unknown names.
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "query" => SpanKind::Query,
            "parse" => SpanKind::Parse,
            "map" => SpanKind::Map,
            "plan" => SpanKind::Plan,
            "pushdown" => SpanKind::Pushdown,
            "batch" => SpanKind::Batch,
            "attempt" => SpanKind::Attempt,
            "rule" => SpanKind::Rule,
            _ => return None,
        })
    }
}

/// How the work a span covers turned out.
///
/// Ordered by severity: combinators keep the worst outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SpanOutcome {
    /// Succeeded first try.
    Ok,
    /// Served from a cache without touching the wire.
    CacheHit,
    /// Succeeded after at least one retry.
    Retried,
    /// Succeeded on a replica after the primary failed.
    FailedOver,
    /// Succeeded, but only after a hedged replica request was launched
    /// against a straggling primary (whichever reply came first won).
    Hedged,
    /// An open circuit breaker refused the call before the wire.
    BreakerRejected,
    /// Refused by admission control before any work was done (overload
    /// shedding). No wire traffic, no cache writes.
    Shed,
    /// Partially succeeded (some children failed).
    Degraded,
    /// Failed outright.
    Failed,
}

impl SpanOutcome {
    /// Stable kebab-case name used by every exporter.
    pub fn as_str(self) -> &'static str {
        match self {
            SpanOutcome::Ok => "ok",
            SpanOutcome::CacheHit => "cache-hit",
            SpanOutcome::Retried => "retried",
            SpanOutcome::FailedOver => "failed-over",
            SpanOutcome::Hedged => "hedged",
            SpanOutcome::BreakerRejected => "breaker-rejected",
            SpanOutcome::Shed => "shed",
            SpanOutcome::Degraded => "degraded",
            SpanOutcome::Failed => "failed",
        }
    }

    /// Parses the exporter name back; `None` for unknown names.
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "ok" => SpanOutcome::Ok,
            "cache-hit" => SpanOutcome::CacheHit,
            "retried" => SpanOutcome::Retried,
            "failed-over" => SpanOutcome::FailedOver,
            "hedged" => SpanOutcome::Hedged,
            "breaker-rejected" => SpanOutcome::BreakerRejected,
            "shed" => SpanOutcome::Shed,
            "degraded" => SpanOutcome::Degraded,
            "failed" => SpanOutcome::Failed,
            _ => return None,
        })
    }

    /// The more severe of the two outcomes.
    pub fn worst(self, other: SpanOutcome) -> SpanOutcome {
        self.max(other)
    }
}

/// One node in the trace tree.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Pipeline stage.
    pub kind: SpanKind,
    /// What the stage operated on: the query text, a source id, an
    /// endpoint id, an ontology path.
    pub name: String,
    /// How it turned out.
    pub outcome: SpanOutcome,
    /// Simulated (virtual network) time, microseconds.
    pub sim_us: u64,
    /// Wall-clock time, microseconds. The only nondeterministic field;
    /// exporters keep it separate so tests can mask it.
    pub wall_us: u64,
    /// Free-form key/value annotations (cache provenance, retry
    /// counts, error text, …) in insertion order.
    pub attrs: Vec<(String, String)>,
    /// Child spans in execution order.
    pub children: Vec<Span>,
}

impl Span {
    /// Creates a span with outcome [`SpanOutcome::Ok`] and zero
    /// durations.
    pub fn new(kind: SpanKind, name: impl Into<String>) -> Self {
        Span {
            kind,
            name: name.into(),
            outcome: SpanOutcome::Ok,
            sim_us: 0,
            wall_us: 0,
            attrs: Vec::new(),
            children: Vec::new(),
        }
    }

    /// Appends an attribute.
    pub fn attr(&mut self, key: impl Into<String>, value: impl Into<String>) {
        self.attrs.push((key.into(), value.into()));
    }

    /// Looks up an attribute by key (first match).
    pub fn get_attr(&self, key: &str) -> Option<&str> {
        self.attrs.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    /// Appends a child span.
    pub fn push(&mut self, child: Span) {
        self.children.push(child);
    }

    /// Number of spans in this subtree, including `self`.
    pub fn len(&self) -> usize {
        1 + self.children.iter().map(Span::len).sum::<usize>()
    }

    /// Always false: a span counts itself.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// All spans in the subtree in depth-first (execution) order.
    pub fn iter(&self) -> impl Iterator<Item = &Span> {
        let mut out = Vec::with_capacity(self.len());
        fn walk<'a>(span: &'a Span, out: &mut Vec<&'a Span>) {
            out.push(span);
            for child in &span.children {
                walk(child, out);
            }
        }
        walk(self, &mut out);
        out.into_iter()
    }
}

/// A complete per-query trace.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// The `query` span.
    pub root: Span,
}

impl Trace {
    /// Wraps a root span.
    pub fn new(root: Span) -> Self {
        Trace { root }
    }

    /// All spans in depth-first order, root first.
    pub fn spans(&self) -> Vec<&Span> {
        self.root.iter().collect()
    }

    /// Spans of one kind, in depth-first order.
    pub fn spans_of(&self, kind: SpanKind) -> Vec<&Span> {
        self.root.iter().filter(|s| s.kind == kind).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_and_outcome_names_round_trip() {
        for kind in [
            SpanKind::Query,
            SpanKind::Parse,
            SpanKind::Map,
            SpanKind::Plan,
            SpanKind::Pushdown,
            SpanKind::Batch,
            SpanKind::Attempt,
            SpanKind::Rule,
        ] {
            assert_eq!(SpanKind::parse(kind.as_str()), Some(kind));
        }
        for outcome in [
            SpanOutcome::Ok,
            SpanOutcome::CacheHit,
            SpanOutcome::Retried,
            SpanOutcome::FailedOver,
            SpanOutcome::Hedged,
            SpanOutcome::BreakerRejected,
            SpanOutcome::Shed,
            SpanOutcome::Degraded,
            SpanOutcome::Failed,
        ] {
            assert_eq!(SpanOutcome::parse(outcome.as_str()), Some(outcome));
        }
        assert_eq!(SpanKind::parse("nope"), None);
        assert_eq!(SpanOutcome::parse("nope"), None);
    }

    #[test]
    fn worst_outcome_wins() {
        assert_eq!(SpanOutcome::Ok.worst(SpanOutcome::Failed), SpanOutcome::Failed);
        assert_eq!(SpanOutcome::Degraded.worst(SpanOutcome::Retried), SpanOutcome::Degraded);
        assert_eq!(SpanOutcome::Ok.worst(SpanOutcome::Ok), SpanOutcome::Ok);
    }

    #[test]
    fn tree_iteration_is_depth_first() {
        let mut root = Span::new(SpanKind::Query, "q");
        let mut batch = Span::new(SpanKind::Batch, "src");
        batch.push(Span::new(SpanKind::Attempt, "ep-1"));
        root.push(Span::new(SpanKind::Parse, "q"));
        root.push(batch);
        let trace = Trace::new(root);
        let kinds: Vec<_> = trace.spans().iter().map(|s| s.kind).collect();
        assert_eq!(
            kinds,
            vec![SpanKind::Query, SpanKind::Parse, SpanKind::Batch, SpanKind::Attempt]
        );
        assert_eq!(trace.root.len(), 4);
        assert_eq!(trace.spans_of(SpanKind::Attempt).len(), 1);
    }

    #[test]
    fn attrs_preserve_order_and_lookup() {
        let mut span = Span::new(SpanKind::Rule, "product.name");
        span.attr("cache", "hit");
        span.attr("values", "3");
        assert_eq!(span.get_attr("cache"), Some("hit"));
        assert_eq!(span.get_attr("missing"), None);
        assert_eq!(span.attrs[1].0, "values");
    }
}
