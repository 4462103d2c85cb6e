//! The Extractor Manager (paper §2.4).
//!
//! "This is the hot point in the extraction mechanism. It is supported
//! by a mediator and a set of wrappers/extractors." The four steps of
//! Figure 5 map onto this module:
//!
//! 1. *know what data to extract* — the query handler produces the
//!    attribute list ([`crate::query`]);
//! 2. *obtain extraction schema* — [`ExtractionSchema`] pairs each
//!    attribute with its rule from the attribute repository;
//! 3. *obtain data source information* — the source registry supplies
//!    connection definitions ([`crate::source`]);
//! 4. *extract data* — the mediator delegates each rule to the wrapper
//!    for its source type (database extractor, XML extractor, web
//!    wrapper, text extractor) and collects raw data fragments.
//!
//! Wrappers and wire legs run on the calling thread; all a [`Strategy`]
//! decides is how long the caller waits for the exchanges' simulated
//! network time, so the report carries both real and simulated timings.

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::Mutex;
use s2s_netsim::wire::{batch_exchange_size, batch_frame_size, exchange_size};
use s2s_netsim::{
    defer_pacing, invoke_with_retry, makespan, pace_sleep, BreakerConfig, CircuitBreaker,
    HedgeConfig, Hedger, Lanes, RetryPolicy, SimDuration,
};
use s2s_obs::{Span, SpanKind, SpanOutcome};

use crate::error::{FailureClass, S2sError};
use crate::ledger::{self, Pushed, SourceLedger, Unfiltered};
use crate::mapping::{AttributeMapping, MappingModule, RecordScenario};
use crate::planner::Bind;
use crate::source::{stable_seed, stable_seed_of, RegisteredSource, SourceRegistry};
use crate::wrapper::{Filter, Ran};

mod values;

pub use values::Values;

/// One unit of extraction work: an attribute, its rule, its source
/// (paper §2.4.1: "extraction schemas of the required attributes").
#[derive(Debug, Clone, PartialEq)]
pub struct ExtractionSchema {
    /// The mapping driving this extraction, shared with the Mapping
    /// Module that holds it.
    pub mapping: Arc<AttributeMapping>,
}

/// How far a query's wire exchanges overlap — on both clocks: the
/// simulated makespan the report carries, and the (optionally paced)
/// wall-clock wait the caller pays once after running every exchange on
/// its own thread. Answers are byte-identical under every strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Up to `workers` exchanges in flight at once, greedy list
    /// scheduling in dispatch order. One worker (the engine's default)
    /// runs them one at a time, in plan order: the waits add up. More
    /// than one share the engine's slots ([`Lanes`]), so concurrent
    /// queries queue for them.
    Parallel {
        /// Exchanges in flight at once (>= 1).
        workers: usize,
    },
    /// Every exchange in flight at once: the caller waits out only the
    /// longest. Simulated makespan is the maximum per-exchange cost.
    Reactor,
}

impl Strategy {
    /// The lane count this strategy asks for (>= 1): the width of the
    /// makespan accounting and of the [`Lanes`] a resident engine keeps
    /// for the strategy. `Reactor` answers 1 — it overlaps everything
    /// and never queues for a lane.
    pub fn workers(self) -> usize {
        match self {
            Strategy::Reactor => 1,
            Strategy::Parallel { workers } => workers.max(1),
        }
    }
}

/// The values extracted for one attribute from one source.
#[derive(Debug, Clone, PartialEq)]
pub struct AttributeResult {
    /// The mapping that produced the values.
    pub mapping: Arc<AttributeMapping>,
    /// The raw data fragments, one per record.
    pub values: Values,
    /// Simulated network + service time of this extraction.
    pub elapsed: SimDuration,
}

/// How the mediator copes with failing endpoints (the resilience
/// layer): per-call retries, failover across replica endpoints, and an
/// optional circuit breaker per endpoint.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResiliencePolicy {
    /// Retry schedule for each endpoint attempt.
    pub retry: RetryPolicy,
    /// Whether a transient failure moves on to the next replica.
    pub failover: bool,
    /// Circuit-breaker tuning; `None` disables breakers.
    pub breaker: Option<BreakerConfig>,
    /// Hedged-request tuning; `None` disables hedging. When set, a
    /// successful exchange slower than the tracked latency percentile
    /// is re-issued to the next replica and the faster reply wins.
    pub hedge: Option<HedgeConfig>,
}

impl ResiliencePolicy {
    /// The legacy behaviour: one attempt, primary endpoint only, no
    /// breaker, no hedging.
    pub fn none() -> Self {
        ResiliencePolicy { retry: RetryPolicy::none(), failover: false, breaker: None, hedge: None }
    }

    /// Replaces the retry schedule.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Enables per-endpoint circuit breakers.
    pub fn with_breaker(mut self, config: BreakerConfig) -> Self {
        self.breaker = Some(config);
        self
    }

    /// Enables hedged requests against straggling primaries. Requires
    /// failover (a hedge needs a replica to race); callers without
    /// replicas simply never hedge.
    pub fn with_hedging(mut self, config: HedgeConfig) -> Self {
        self.hedge = Some(config);
        self
    }
}

impl Default for ResiliencePolicy {
    /// No retries, failover enabled, no breaker, no hedging — replicas
    /// are used when registered, nothing else changes.
    fn default() -> Self {
        ResiliencePolicy { retry: RetryPolicy::none(), failover: true, breaker: None, hedge: None }
    }
}

/// Shared state of the resilience layer for one middleware instance:
/// the policy, one lazily created circuit breaker per endpoint, and a
/// virtual clock (accumulated simulated time) that drives breaker
/// cooldowns.
#[derive(Debug, Default)]
pub struct ResilienceContext {
    policy: ResiliencePolicy,
    breakers: Mutex<BTreeMap<String, Arc<CircuitBreaker>>>,
    clock: Mutex<SimDuration>,
    hedger: Option<Hedger>,
}

impl ResilienceContext {
    /// A fresh context (closed breakers, clock at zero, cold hedge
    /// tracker when the policy enables hedging).
    pub fn new(policy: ResiliencePolicy) -> Self {
        let hedger = policy.hedge.map(Hedger::new);
        ResilienceContext { policy, hedger, ..ResilienceContext::default() }
    }

    /// The breaker guarding `endpoint_id`, if one has been created.
    pub fn breaker(&self, endpoint_id: &str) -> Option<Arc<CircuitBreaker>> {
        self.breakers.lock().get(endpoint_id).cloned()
    }

    /// The hedged-request latency tracker, when hedging is enabled.
    pub fn hedger(&self) -> Option<&Hedger> {
        self.hedger.as_ref()
    }

    /// Accumulated virtual time across all resilient calls so far.
    pub fn virtual_now(&self) -> SimDuration {
        *self.clock.lock()
    }

    /// Advances the virtual clock without performing a call (e.g. to
    /// let a breaker cooldown expire in tests or experiments).
    pub fn advance_clock(&self, elapsed: SimDuration) {
        *self.clock.lock() += elapsed;
    }

    fn breaker_for(&self, endpoint_id: &str) -> Option<Arc<CircuitBreaker>> {
        let config = self.policy.breaker?;
        Some(Arc::clone(
            self.breakers
                .lock()
                .entry(endpoint_id.to_string())
                .or_insert_with(|| Arc::new(CircuitBreaker::new(config))),
        ))
    }

    fn advance(&self, elapsed: SimDuration) -> SimDuration {
        let mut clock = self.clock.lock();
        *clock += elapsed;
        *clock
    }
}

/// A failed extraction, attributed to its attribute and source (feeds
/// the Instance Generator's error reporting, §2.6).
#[derive(Debug, Clone, PartialEq)]
pub struct ExtractionFailure {
    /// The attribute path that failed.
    pub attribute: String,
    /// The source involved.
    pub source: String,
    /// What went wrong.
    pub error: S2sError,
}

/// The full outcome of a mediated extraction round.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ExtractionReport {
    /// Successful per-attribute results.
    pub results: Vec<AttributeResult>,
    /// Failures (partial results are still returned).
    pub failures: Vec<ExtractionFailure>,
    /// Simulated completion time under the strategy used.
    pub simulated: SimDuration,
    /// Simulated completion time had the tasks run serially (for
    /// speed-up reporting).
    pub simulated_serial: SimDuration,
    /// The query's ledger, one row per source in id order
    /// ([`crate::ledger`]).
    pub sources: Vec<SourceLedger>,
    /// Per-batch trace spans (`batch → rule/attempt`), populated only
    /// when [`ExtractEnv::traced`]; empty otherwise.
    pub spans: Vec<Span>,
}

impl ExtractionReport {
    /// Whether every task succeeded.
    pub fn is_complete(&self) -> bool {
        self.failures.is_empty()
    }

    /// Fraction of tasks answered: `results / (results + failures)`,
    /// `1.0` when nothing was requested.
    pub fn completeness(&self) -> f64 {
        let requested = self.results.len() + self.failures.len();
        if requested == 0 {
            1.0
        } else {
            self.results.len() as f64 / requested as f64
        }
    }
}

/// The mediator: executes extraction schemas against registered sources.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExtractorManager;

impl ExtractorManager {
    /// Builds extraction schemas for every mapping of the given
    /// attribute paths (step 2 of Fig. 5).
    ///
    /// # Errors
    ///
    /// Returns [`S2sError::UnmappedAttribute`] if any path has no
    /// mapping at all.
    pub fn obtain_schemas(
        module: &MappingModule,
        paths: &[s2s_owl::AttributePath],
    ) -> Result<Vec<ExtractionSchema>, S2sError> {
        let mut schemas = Vec::new();
        for p in paths {
            let mappings = module.shared_mappings_for(p);
            if mappings.is_empty() {
                return Err(S2sError::UnmappedAttribute { attribute: p.to_string() });
            }
            schemas.extend(mappings.iter().map(|m| ExtractionSchema { mapping: Arc::clone(m) }));
        }
        Ok(schemas)
    }

    /// Runs a batch of schemas (step 4 of Fig. 5), tolerating per-task
    /// failures — the mediator's one pipeline. The planner groups the
    /// schemas by source, runs every wrapper locally, coalesces each
    /// source's rules into a single `BatchRequest`/`BatchResponse` wire
    /// exchange, and dispatches the groups longest-processing-time-first
    /// so the k-worker makespan is near-optimal.
    ///
    /// Results and failures come back in submission order whatever the
    /// dispatch order. A failed exchange retries/fails over *as a unit*
    /// and fails every rule of its source with the same network error;
    /// wrapper errors (bad rules, missing columns) are reported
    /// individually and never reach the wire, so one bad rule cannot
    /// sink its batch.
    ///
    /// `sources` is the query's ledger ([`crate::ledger`]); the mediator
    /// writes each source's tasks, attempt ladder, wire time and bytes
    /// into its row (adding a row for a source without one) and hands
    /// the rows back in the report. The condition, folded against a
    /// source's rules, filters its records, and its row holds the leaves
    /// the fold tests; a source that has to run unfiltered gets them
    /// cleared and the reason set.
    ///
    /// When [`ExtractEnv::traced`], the report's `spans` carry one
    /// `batch` span per planned wire exchange, with one `rule` child
    /// per planned rule and one `attempt` child per endpoint tried.
    pub fn extract(
        registry: &SourceRegistry,
        schemas: Vec<ExtractionSchema>,
        mut sources: Vec<SourceLedger>,
        env: &ExtractEnv<'_>,
    ) -> ExtractionReport {
        let batches = plan_batches(registry, &schemas, env);

        let mut report = ExtractionReport::default();
        let mut durations = Vec::new();
        let mut results = Vec::new();
        let mut failures = Vec::new();
        let mut waits_us = Vec::with_capacity(batches.len());
        // Every wire leg runs here, in dispatch order, with its paced
        // wait deferred; the strategy only says how far the waits overlap
        // before the caller pays them in one sleep.
        let mut at = usize::MAX;
        for batch in batches {
            let row = ledger::row(&mut sources, batch.source_id, &mut at);
            let started = env.traced.then(std::time::Instant::now);
            let mut attempt_spans = env.traced.then(Vec::new);
            let (net, wait_us) = defer_pacing(|| match batch.source {
                Some(source) if !batch.ok.is_empty() => {
                    resilient_exchange(source, &batch, env, row, attempt_spans.as_mut())
                }
                // Nothing survived the wrappers (or the source is
                // unknown): no wire leg at all.
                _ => Ok(SimDuration::ZERO),
            });
            let wall_us = started.map_or(0, |t| t.elapsed().as_micros() as u64);
            waits_us.push(wait_us);
            let rules = batch.ok.len() + batch.failed.len();
            let outcome = batch_outcome(net.is_err(), !batch.failed.is_empty(), row);
            row.tasks += rules;
            row.statements += batch.ran.statements;
            (row.pushed, row.unfiltered) = (batch.pushed, batch.ran.unfiltered);
            row.failed_tasks += batch.failed.len();
            row.breaker_state = batch
                .source
                .and_then(|s| env.resilience.breaker(s.endpoint().id()))
                .map(|b| b.state());
            for (i, schema, error) in batch.failed {
                failures.push((i, failure_of(schema, error)));
            }
            match net {
                Ok(elapsed) => {
                    if !batch.ok.is_empty() {
                        durations.push(elapsed);
                        row.wire_bytes += batch.wire_bytes as u64;
                        row.wire_response_bytes += batch.response_bytes as u64;
                    }
                    for (i, schema, values) in batch.ok {
                        let mapping = Arc::clone(&schema.mapping);
                        results.push((i, AttributeResult { mapping, values, elapsed }));
                    }
                }
                Err(error) => {
                    // The exchange failed as a unit: every batched rule
                    // reports the same network error.
                    row.failed_tasks += batch.ok.len();
                    for (i, schema, _) in batch.ok {
                        failures.push((i, failure_of(schema, error.clone())));
                    }
                }
            }
            // The span renders the source's finished row: no other
            // exchange of the query writes it.
            if let Some(attempt_spans) = attempt_spans {
                let mut span = Span::new(SpanKind::Batch, batch.source_id);
                span.sim_us = row.wire_time.as_micros();
                span.wall_us = batch.wrapper_us + wall_us;
                span.outcome = outcome;
                span.attr("rules", rules.to_string());
                span.attr("statements", batch.ran.statements.to_string());
                span.attr("wire_bytes", row.wire_bytes.to_string());
                for child in batch.rule_spans.into_iter().chain(attempt_spans) {
                    span.push(child);
                }
                report.spans.push(span);
            }
        }
        pace_sleep(match env.strategy {
            Strategy::Reactor => waits_us.into_iter().max().unwrap_or(0),
            Strategy::Parallel { workers } if workers > 1 => env.lanes.reserve(&waits_us),
            Strategy::Parallel { .. } => waits_us.into_iter().sum(),
        });
        // Restore submission order so the output is byte-identical
        // whatever the grouping and the dispatch order.
        results.sort_by_key(|(i, _)| *i);
        failures.sort_by_key(|(i, _)| *i);
        report.results = results.into_iter().map(|(_, r)| r).collect();
        report.failures = failures.into_iter().map(|(_, f)| f).collect();
        report.sources = sources;
        report.simulated_serial = durations.iter().copied().sum();
        // Under `Reactor` every exchange overlaps every other.
        let overlap = match env.strategy {
            Strategy::Reactor => durations.len().max(1),
            strategy => strategy.workers(),
        };
        report.simulated = makespan(&durations, overlap);
        report
    }
}

/// What one mediated extraction round runs under — the engine state
/// [`crate::middleware::S2s`] threads into [`ExtractorManager::extract`].
#[derive(Debug, Clone, Copy)]
pub struct ExtractEnv<'a> {
    /// How far the exchanges overlap: sizes the simulated makespan
    /// and picks the rule for the caller's one paced wait.
    pub strategy: Strategy,
    /// The slots [`Strategy::Parallel`] waits queue for: a resident
    /// engine passes its long-lived lanes, so concurrent queries
    /// contend for the same `workers` slots.
    pub lanes: &'a Lanes,
    /// Retry/failover policy, breaker board and virtual clock.
    pub resilience: &'a ResilienceContext,
    /// The query's remaining budget, applied per source exchange (see
    /// [`ResiliencePolicy`] and the overload layer).
    pub deadline: Option<SimDuration>,
    /// Whether to build trace spans; nothing is allocated when off.
    pub traced: bool,
    /// What the query's condition lets a source filter by; `None`
    /// without a condition.
    pub(crate) bind: Option<&'a Bind<'a>>,
}

/// One source's schemas bound for a single wire exchange, planned
/// before any wire leg; it borrows the schemas it plans.
struct PlannedBatch<'a> {
    source_id: &'a str,
    source: Option<&'a RegisteredSource>,
    /// Keeps backoff-jitter draw streams distinct per batch: the
    /// [`stable_seed`] of `{source}:batch`.
    salt: u64,
    /// Wrapper-successful schemas: submission index, schema, values.
    ok: Vec<(usize, &'a ExtractionSchema, Values)>,
    /// Wrapper-failed schemas (these never reach the wire).
    failed: Vec<(usize, &'a ExtractionSchema, S2sError)>,
    /// Statements the wrapper ran for the schemas, and why not through
    /// a filter if the query has a condition.
    ran: Ran,
    /// The leaves the source was filtered by.
    pushed: Pushed,
    /// Wall time of the wrapper run (0 unless tracing).
    wrapper_us: u64,
    /// Total on-wire bytes of the coalesced exchange.
    wire_bytes: usize,
    /// The `BatchResponse` frame's share of `wire_bytes`.
    response_bytes: usize,
    /// LPT sort key: estimated wire cost under the source's cost model.
    estimate: SimDuration,
    /// Per-rule trace spans in submission order (empty unless tracing).
    rule_spans: Vec<Span>,
}

/// Groups schemas by source, runs the local wrapper half through the
/// filter the source's row in `rows` binds, and sizes the coalesced
/// `BatchRequest`/`BatchResponse` exchange for each source. The one
/// buffer it adds to the batches is the submission order sorted by
/// source: a source costs its batch, no copy of its id or schemas.
fn plan_batches<'a>(
    registry: &'a SourceRegistry,
    schemas: &'a [ExtractionSchema],
    env: &ExtractEnv<'_>,
) -> Vec<PlannedBatch<'a>> {
    let traced = env.traced;
    let source_of = |i: usize| schemas[i].mapping.source();
    // Submission indices by source id, in submission order within one.
    let mut order: Vec<usize> = (0..schemas.len()).collect();
    order.sort_unstable_by(|&a, &b| source_of(a).cmp(source_of(b)).then(a.cmp(&b)));
    let same_source = |a: &usize, b: &usize| source_of(*a) == source_of(*b);
    let mut batches = Vec::with_capacity(order.chunk_by(same_source).count());
    // One source's mappings, columns and filter, reused from source to
    // source.
    let mut mappings: Vec<&AttributeMapping> = Vec::new();
    let mut columns = Vec::new();
    let mut filter = Filter::default();
    for group in order.chunk_by(same_source) {
        let id = source_of(group[0]);
        let source_id = id.as_str();
        let started = traced.then(std::time::Instant::now);
        mappings.clear();
        mappings.extend(group.iter().map(|&i| &*schemas[i].mapping));
        let bound = env.bind.map(|bind| bind.to(&mappings, &mut filter.fold));
        let (source, mut ran) = match registry.require(id) {
            Ok(source) => (Some(source), prepare(source, &mappings, &mut filter, &mut columns)),
            Err(e) => {
                columns.extend(group.iter().map(|_| Err(e.clone())));
                let unfiltered = filter.fold.is_bound().then_some(Unfiltered::Statements);
                (None, Ran { statements: 0, unfiltered })
            }
        };
        if let Some(Err(why)) = bound {
            ran.unfiltered = Some(why);
        }
        let filtered = bound.is_some() && ran.unfiltered.is_none();
        let pushed = bound.and_then(Result::ok).filter(|_| filtered).unwrap_or_default();
        let wrapper_us = started.map_or(0, |t| t.elapsed().as_micros() as u64);
        let mut ok = Vec::with_capacity(group.len());
        let mut failed = Vec::new();
        let mut rule_spans = Vec::new();
        for (&i, prepared) in group.iter().zip(columns.drain(..)) {
            let schema = &schemas[i];
            if traced {
                // The source's rules ran as its statements: the batch
                // span holds the time, a rule span what the rule got.
                let mut span = Span::new(SpanKind::Rule, schema.mapping.path().to_string());
                span.attr("source", source_id);
                match &prepared {
                    Ok(values) => span.attr("values", values.len().to_string()),
                    Err(error) => {
                        span.outcome = SpanOutcome::Failed;
                        span.attr("error", error.to_string());
                    }
                }
                rule_spans.push(span);
            }
            match prepared {
                Ok(values) => ok.push((i, schema, values)),
                Err(e) => failed.push((i, schema, e)),
            }
        }
        // Every surviving rule travels as one section of a single
        // BatchRequest, and so does each leaf its filter tests (its
        // operator and constant); every value list comes back as one
        // section of the matching BatchResponse.
        let (wire_bytes, response_bytes) = if ok.is_empty() {
            (0, 0)
        } else {
            let rules = ok.iter().map(|(_, s, _)| s.mapping.rule().text().len());
            let leaves = filter.fold.leaves().filter(|_| filtered);
            let constants = leaves.map(|c| c.op().token().len() + c.value().len());
            let responses = ok.iter().map(|(_, _, v)| v.text_len());
            let requests = rules.chain(constants);
            (batch_exchange_size(requests, responses.clone()), batch_frame_size(responses))
        };
        let estimate =
            source.map(|s| s.endpoint().cost_model().cost(wire_bytes, 0.5)).unwrap_or_default();
        batches.push(PlannedBatch {
            source_id,
            source,
            salt: stable_seed_of(&[source_id, ":batch"]),
            ok,
            failed,
            ran,
            pushed,
            wrapper_us,
            wire_bytes,
            response_bytes,
            estimate,
            rule_spans,
        });
    }
    // Longest processing time first: the greedy list scheduler (both
    // clocks: `Lanes` and the `makespan` accounting) sees the costliest
    // batches first, which keeps the k-worker makespan near-optimal.
    // Ties fall back to the source id, so the dispatch order — and with
    // it the breaker and virtual-clock sequencing of a serial run — is a
    // function of the plan alone.
    batches.sort_by(|a, b| b.estimate.cmp(&a.estimate).then_with(|| a.source_id.cmp(b.source_id)));
    batches
}

fn failure_of(schema: &ExtractionSchema, error: S2sError) -> ExtractionFailure {
    ExtractionFailure {
        attribute: schema.mapping.path().to_string(),
        source: schema.mapping.source().to_string(),
        error,
    }
}

/// Severity-composed outcome of a `batch` span: a failed wire exchange
/// dominates, then wrapper-level degradation, then resilience events
/// that a success still passed through (breaker skips, failovers,
/// retries) — read off the source's row, which only this batch's
/// exchange writes.
fn batch_outcome(net_failed: bool, any_rule_failed: bool, row: &SourceLedger) -> SpanOutcome {
    if net_failed {
        return SpanOutcome::Failed;
    }
    let mut outcome = SpanOutcome::Ok;
    if row.retries > 0 {
        outcome = outcome.worst(SpanOutcome::Retried);
    }
    if row.failovers > 0 {
        outcome = outcome.worst(SpanOutcome::FailedOver);
    }
    if row.hedges > 0 {
        outcome = outcome.worst(SpanOutcome::Hedged);
    }
    if row.breaker_rejections > 0 {
        outcome = outcome.worst(SpanOutcome::BreakerRejected);
    }
    if any_rule_failed {
        outcome = outcome.worst(SpanOutcome::Degraded);
    }
    outcome
}

/// Runs one extraction rule against one source, crossing the source's
/// simulated endpoint.
///
/// Wire accounting: the rule text travels in a request frame, the
/// extracted values in a response frame; both feed the endpoint cost
/// model, so larger rules and larger results genuinely cost more
/// simulated time.
///
/// # Errors
///
/// Rule/source mismatches, wrapper errors, and injected network
/// failures all surface as [`S2sError`].
pub fn extract_one(
    registry: &SourceRegistry,
    mapping: &AttributeMapping,
) -> Result<(Values, SimDuration), S2sError> {
    let source = registry.require(mapping.source())?;
    let mut out = Vec::with_capacity(1);
    prepare(source, &[mapping], &mut Filter::default(), &mut out);
    let values = out.pop().expect("one result per mapping")?;
    let bytes = exchange_size(mapping.rule().text().len(), values.text_len());
    let elapsed = source.endpoint().invoke(bytes)?;
    Ok((values, elapsed))
}

/// The resilient network leg of one planned batch: retries per the
/// policy, fails over along the source's replica list on transient
/// failures, and is gated by per-endpoint circuit breakers. Wrapper
/// errors never get here — replicas serve the same data, so neither
/// retry nor failover is attempted for them. The batch's salt keeps
/// backoff-jitter draw streams distinct per batch. The attempt ladder
/// and the wire time go to the source's ledger `row`, which no other
/// exchange of the query writes; the `Ok` carries the time charged.
///
/// A failover is counted only once at least one real attempt has been
/// made — skipping past a breaker-rejected endpoint costs no network
/// attempt and is not a failover.
///
/// `env.deadline` is the query's remaining budget for this exchange (the
/// parallel execution model starts every source at the same instant, so
/// each exchange gets the full per-query budget). It tightens the retry
/// policy's own deadline; when the budget runs out — mid-attempt or
/// mid-backoff — the exchange stops immediately with
/// [`S2sError::DeadlineExceeded`]: no further failover can fit in zero
/// remaining budget.
///
/// Hedging (when the policy enables it) races a straggling-but-
/// successful primary against the next replica: once the primary's
/// elapsed time exceeds the tracked latency percentile, a single
/// no-retry attempt is issued to the replica and the faster completion
/// time is charged. The loser is "cancelled" by never charging its
/// remainder — virtual time makes the race deterministic. Both the
/// primary and the hedge attempt reach the wire, so both count toward
/// `attempts` (and thus `round_trips`).
fn resilient_exchange(
    source: &RegisteredSource,
    batch: &PlannedBatch<'_>,
    env: &ExtractEnv<'_>,
    row: &mut SourceLedger,
    mut spans: Option<&mut Vec<Span>>,
) -> Result<SimDuration, S2sError> {
    let (ctx, source_label, salt, bytes) =
        (env.resilience, batch.source_id, batch.salt, batch.wire_bytes);
    let replicas = if ctx.policy.failover { source.replicas() } else { &[] };

    let mut attempted = false;
    let mut last_err = None;
    for (slot, endpoint) in std::iter::once(source.endpoint()).chain(replicas).enumerate() {
        if attempted {
            row.failovers += 1;
        }
        let is_failover = attempted;
        let breaker = ctx.breaker_for(endpoint.id());
        if let Some(b) = &breaker {
            if !b.allow(ctx.virtual_now()) {
                row.breaker_rejections += 1;
                if let Some(spans) = spans.as_deref_mut() {
                    let mut span = Span::new(SpanKind::Attempt, endpoint.id().to_string());
                    span.outcome = SpanOutcome::BreakerRejected;
                    spans.push(span);
                }
                last_err = Some(S2sError::CircuitOpen { source: source_label.to_string() });
                continue;
            }
        }
        // The effective retry deadline is the tighter of the policy's
        // own deadline and what remains of the query budget after the
        // attempts already spent on this exchange.
        let mut retry = ctx.policy.retry;
        if let Some(budget) = env.deadline {
            let remaining = budget.saturating_sub(row.wire_time);
            if remaining == SimDuration::ZERO {
                row.deadline_hits += 1;
                last_err = Some(S2sError::DeadlineExceeded { source: source_label.to_string() });
                break;
            }
            retry.deadline = Some(retry.deadline.map_or(remaining, |d| d.min(remaining)));
        }
        let seed = stable_seed(endpoint.id()) ^ salt;
        let out = invoke_with_retry(endpoint, &retry, seed, bytes);
        attempted = true;
        row.attempts += u64::from(out.attempts);
        row.retries += u64::from(out.retries());

        // Hedge a straggling success against the next replica.
        let mut charged = out.elapsed;
        let mut hedged = false;
        let mut hedge_won = false;
        if out.result.is_ok() {
            if let Some(hedger) = ctx.hedger() {
                hedger.record(out.elapsed);
                // The endpoint after this one: replica `slot`.
                if let (Some(delay), Some(replica)) = (hedger.delay(), replicas.get(slot)) {
                    if out.elapsed > delay {
                        row.hedges += 1;
                        hedged = true;
                        let h_seed = stable_seed(replica.id()) ^ salt ^ HEDGE_SEED_SALT;
                        let h = invoke_with_retry(replica, &RetryPolicy::none(), h_seed, bytes);
                        row.attempts += u64::from(h.attempts);
                        if h.result.is_ok() {
                            let replica_done = delay + h.elapsed;
                            if replica_done < out.elapsed {
                                row.hedge_wins += 1;
                                hedge_won = true;
                                charged = replica_done;
                            }
                        }
                    }
                }
            }
        }
        row.wire_time += charged;
        let now = ctx.advance(charged);
        if let Some(spans) = spans.as_deref_mut() {
            let mut span = Span::new(SpanKind::Attempt, endpoint.id().to_string());
            span.sim_us = charged.as_micros();
            span.outcome = match &out.result {
                Ok(()) if hedged => SpanOutcome::Hedged,
                Ok(()) if is_failover => SpanOutcome::FailedOver,
                Ok(()) if out.retries() > 0 => SpanOutcome::Retried,
                Ok(()) => SpanOutcome::Ok,
                Err(_) => SpanOutcome::Failed,
            };
            if hedged {
                span.attr("hedge", if hedge_won { "win" } else { "loss" });
            }
            if out.retries() > 0 {
                span.attr("retries", out.retries().to_string());
            }
            if let Err(e) = &out.result {
                span.attr("error", e.to_string());
            }
            spans.push(span);
        }
        match out.result {
            Ok(()) => {
                if let Some(b) = &breaker {
                    b.record_success(now);
                }
                return Ok(row.wire_time);
            }
            Err(e) => {
                if let Some(b) = &breaker {
                    b.record_failure(now);
                }
                if out.deadline_hit {
                    // The budget expired mid-retry (possibly during a
                    // backoff wait): stop immediately and label the
                    // failure honestly — failover cannot fit in zero
                    // remaining budget.
                    row.deadline_hits += 1;
                    last_err =
                        Some(S2sError::DeadlineExceeded { source: source_label.to_string() });
                    break;
                }
                let error = S2sError::Net(e);
                let transient = error.failure_class() == FailureClass::Transient;
                last_err = Some(error);
                if !transient {
                    break;
                }
            }
        }
    }
    let error =
        last_err.unwrap_or_else(|| S2sError::CircuitOpen { source: source_label.to_string() });
    Err(error)
}

/// Decorrelates the hedge attempt's jitter stream from the replica's
/// ordinary failover stream, so hedged and non-hedged runs stay
/// independently deterministic.
const HEDGE_SEED_SALT: u64 = 0x9e37_79b9_97f4_a7c5;

/// The wrapper run of `mappings`, rules of `source`, through `filter`
/// into `out`, and scenario truncation — everything local; no wire
/// accounting.
fn prepare(
    source: &RegisteredSource,
    mappings: &[&AttributeMapping],
    filter: &mut Filter<'_>,
    out: &mut Vec<Result<Values, S2sError>>,
) -> Ran {
    let start = out.len();
    let ran = crate::wrapper::run(source.connection(), mappings, filter, out);
    for (values, mapping) in out[start..].iter_mut().zip(mappings) {
        if let (Ok(values), RecordScenario::SingleRecord) = (values, mapping.scenario()) {
            values.truncate(1);
        }
    }
    ran
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::{ExtractionRule, MappingModule};
    use crate::source::Connection;
    use s2s_minidb::Database;
    use s2s_netsim::{BreakerState, CostModel, FailureModel};
    use s2s_owl::Ontology;
    use s2s_webdoc::WebStore;
    use std::sync::Arc;

    fn onto() -> Ontology {
        Ontology::builder("http://example.org/schema#")
            .class("Product", None)
            .unwrap()
            .datatype_property("brand", "Product", s2s_rdf::vocab::xsd::STRING)
            .unwrap()
            .datatype_property("price", "Product", s2s_rdf::vocab::xsd::DECIMAL)
            .unwrap()
            .build()
            .unwrap()
    }

    fn registry() -> SourceRegistry {
        let mut db = Database::new("catalog");
        db.execute("CREATE TABLE w (id INTEGER PRIMARY KEY, brand TEXT, price REAL)").unwrap();
        db.execute("INSERT INTO w VALUES (1,'Seiko',129.99),(2,'Casio',59.5),(3,NULL,1.0)")
            .unwrap();

        let doc = s2s_xml::parse(
            "<catalog><w><brand>Orient</brand></w><w><brand>Tissot</brand></w></catalog>",
        )
        .unwrap();

        let mut web = WebStore::new();
        web.register_html("http://shop/81", "<p><b>Seiko Men's Automatic Dive Watch</b></p>");
        web.register_text("http://files/p.txt", "brand: Fossil\nbrand: Timex\n");
        let web = Arc::new(web);

        let mut r = SourceRegistry::new();
        r.register_local("DB_ID_45", Connection::Database { db: Arc::new(db) }).unwrap();
        r.register_local("XML_7", Connection::Xml { document: Arc::new(doc) }).unwrap();
        r.register_local(
            "wpage_81",
            Connection::Web { store: web.clone(), url: "http://shop/81".into() },
        )
        .unwrap();
        r.register_local(
            "txt_1",
            Connection::Text { store: web, url: "http://files/p.txt".into() },
        )
        .unwrap();
        r
    }

    fn module() -> MappingModule {
        let o = onto();
        let mut m = MappingModule::new();
        m.register(
            &o,
            "thing.product.brand".parse().unwrap(),
            ExtractionRule::Sql {
                query: "SELECT brand FROM w ORDER BY id".into(),
                column: "brand".into(),
            },
            "DB_ID_45".into(),
            RecordScenario::MultiRecord,
        )
        .unwrap();
        m
    }

    /// Every mediator test goes through the one pipeline: fresh lanes
    /// sized by `strategy`, untraced, no deadline.
    fn run(
        r: &SourceRegistry,
        schemas: Vec<ExtractionSchema>,
        strategy: Strategy,
        ctx: &ResilienceContext,
    ) -> ExtractionReport {
        let lanes = Lanes::new(strategy.workers());
        let env = ExtractEnv {
            strategy,
            lanes: &lanes,
            resilience: ctx,
            deadline: None,
            traced: false,
            bind: None,
        };
        ExtractorManager::extract(r, schemas, Vec::new(), &env)
    }

    /// [`run`] with serial dispatch.
    fn run_serial(
        r: &SourceRegistry,
        schemas: Vec<ExtractionSchema>,
        ctx: &ResilienceContext,
    ) -> ExtractionReport {
        run(r, schemas, Strategy::Parallel { workers: 1 }, ctx)
    }

    fn no_resilience() -> ResilienceContext {
        ResilienceContext::new(ResiliencePolicy::none())
    }

    /// The ledger row the mediator wrote for `source`.
    fn row<'a>(report: &'a ExtractionReport, source: &str) -> &'a SourceLedger {
        report.sources.iter().find(|r| r.source == source).expect("a row per dispatched source")
    }

    #[test]
    fn single_record_truncates() {
        let o = onto();
        let r = registry();
        let mut m = MappingModule::new();
        m.register(
            &o,
            "thing.product.brand".parse().unwrap(),
            ExtractionRule::TextRegex { pattern: r"brand: (\w+)".into(), group: 1 },
            "txt_1".into(),
            RecordScenario::SingleRecord,
        )
        .unwrap();
        let (values, _) = extract_one(&r, m.iter().next().unwrap()).unwrap();
        assert_eq!(values, ["Fossil"]);
    }

    #[test]
    fn obtain_schemas_requires_mapping() {
        let m = module();
        let err = ExtractorManager::obtain_schemas(&m, &["thing.product.price".parse().unwrap()]);
        assert!(matches!(err, Err(S2sError::UnmappedAttribute { .. })));
        let ok = ExtractorManager::obtain_schemas(&m, &["thing.product.brand".parse().unwrap()])
            .unwrap();
        assert_eq!(ok.len(), 1);
    }

    #[test]
    fn mediator_collects_results_and_failures() {
        let o = onto();
        let r = registry();
        let mut m = MappingModule::new();
        m.register(
            &o,
            "thing.product.brand".parse().unwrap(),
            ExtractionRule::Sql { query: "SELECT brand FROM w".into(), column: "brand".into() },
            "DB_ID_45".into(),
            RecordScenario::MultiRecord,
        )
        .unwrap();
        m.register(
            &o,
            "thing.product.price".parse().unwrap(),
            ExtractionRule::Sql { query: "SELECT oops FROM w".into(), column: "oops".into() },
            "DB_ID_45".into(),
            RecordScenario::MultiRecord,
        )
        .unwrap();
        let schemas = ExtractorManager::obtain_schemas(
            &m,
            &["thing.product.brand".parse().unwrap(), "thing.product.price".parse().unwrap()],
        )
        .unwrap();
        let report = run_serial(&r, schemas, &no_resilience());
        assert_eq!(report.results.len(), 1);
        assert_eq!(report.failures.len(), 1);
        assert!(!report.is_complete());
        assert_eq!(report.results[0].values.len(), 2);
        assert!(report.failures[0].attribute.contains("price"));
    }

    /// A mixed fixture over every source of [`registry`]: seven
    /// attributes spread across the database, XML, and text sources,
    /// including a rule that fails at execution (unknown column) and one
    /// that fails to compile (broken regex), so equivalence covers
    /// failures too.
    fn mixed_fixture() -> (MappingModule, Vec<s2s_owl::AttributePath>) {
        let mut builder =
            Ontology::builder("http://example.org/schema#").class("Product", None).unwrap();
        for i in 0..7 {
            builder = builder
                .datatype_property(&format!("a{i}"), "Product", s2s_rdf::vocab::xsd::STRING)
                .unwrap();
        }
        let o = builder.build().unwrap();
        let entries: [(ExtractionRule, &str); 7] = [
            (
                ExtractionRule::Sql { query: "SELECT brand FROM w".into(), column: "brand".into() },
                "DB_ID_45",
            ),
            (
                ExtractionRule::Sql { query: "SELECT price FROM w".into(), column: "price".into() },
                "DB_ID_45",
            ),
            (
                ExtractionRule::Sql { query: "SELECT nope FROM w".into(), column: "nope".into() },
                "DB_ID_45",
            ),
            (ExtractionRule::XPath { path: "//w/brand/text()".into() }, "XML_7"),
            (ExtractionRule::TextRegex { pattern: r"brand: (\w+)".into(), group: 1 }, "txt_1"),
            (ExtractionRule::TextRegex { pattern: "(unclosed".into(), group: 0 }, "txt_1"),
            (ExtractionRule::XPath { path: "//w/missing/text()".into() }, "XML_7"),
        ];
        let mut m = MappingModule::new();
        let mut paths = Vec::new();
        for (i, (rule, source)) in entries.into_iter().enumerate() {
            let path: s2s_owl::AttributePath = format!("thing.product.a{i}").parse().unwrap();
            m.register(&o, path.clone(), rule, source.into(), RecordScenario::MultiRecord).unwrap();
            paths.push(path);
        }
        (m, paths)
    }

    /// Comparable view of a report: per-attribute values plus failure
    /// attribution (error text included, so "same failure" means the
    /// same error, not just the same count).
    fn outcome_key(rep: &ExtractionReport) -> (Vec<(String, Vec<String>)>, Vec<String>) {
        let mut values: Vec<(String, Vec<String>)> = rep
            .results
            .iter()
            .map(|x| {
                let values = x.values.iter().map(String::from).collect();
                (format!("{}@{}", x.mapping.path(), x.mapping.source()), values)
            })
            .collect();
        values.sort();
        let mut failures: Vec<String> = rep
            .failures
            .iter()
            .map(|f| format!("{}@{}: {}", f.attribute, f.source, f.error))
            .collect();
        failures.sort();
        (values, failures)
    }

    #[test]
    fn parallel_equals_serial_results() {
        // Property-style equivalence: serial ≡ parallel ≡ all in flight —
        // identical results *and* identical failures for arbitrary schema
        // subsets.
        let r = registry();
        let (m, paths) = mixed_fixture();
        let all = ExtractorManager::obtain_schemas(&m, &paths).unwrap();
        assert_eq!(all.len(), 7);
        // Every subset of the schema batch (including empty and full).
        for mask in 0..(1u32 << all.len()) {
            let subset: Vec<ExtractionSchema> = all
                .iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0)
                .map(|(_, s)| s.clone())
                .collect();
            let ctx = no_resilience();
            let four = Strategy::Parallel { workers: 4 };
            let serial = run(&r, subset.clone(), Strategy::Parallel { workers: 1 }, &ctx);
            let parallel = run(&r, subset.clone(), four, &ctx);
            let reactor = run(&r, subset, Strategy::Reactor, &ctx);
            let key = outcome_key(&serial);
            assert_eq!(key, outcome_key(&parallel), "subset {mask:#b}");
            assert_eq!(key, outcome_key(&reactor), "subset {mask:#b}");
        }
    }

    #[test]
    fn batched_results_preserve_submission_order() {
        // The fixture interleaves sources, so source-major dispatch is
        // not submission order; the report must restore the latter.
        let r = registry();
        let (m, paths) = mixed_fixture();
        let schemas = ExtractorManager::obtain_schemas(&m, &paths).unwrap();
        let submitted: Vec<String> = schemas.iter().map(|s| s.mapping.path().to_string()).collect();
        let report = run_serial(&r, schemas, &no_resilience());
        let answered = report.results.iter().map(|x| x.mapping.path().to_string());
        let failed = report.failures.iter().map(|f| f.attribute.clone());
        let in_submission_order = |got: Vec<String>| {
            let want: Vec<&String> = submitted.iter().filter(|p| got.contains(p)).collect();
            assert_eq!(got.iter().collect::<Vec<_>>(), want);
        };
        in_submission_order(answered.collect());
        in_submission_order(failed.collect());
    }

    /// Four remote sources behind a WAN — flaky, failing over, healthy,
    /// flaky with a flaky replica — mapping `brand` and `price`, one
    /// `price` rule reading a column that does not exist; one run with
    /// retries and failover over a fresh registry, the schemas in the
    /// order `arrange` leaves them.
    fn fleet_run(arrange: impl FnOnce(&mut Vec<ExtractionSchema>)) -> ExtractionReport {
        let o = onto();
        let mut r = SourceRegistry::new();
        let mut m = MappingModule::new();
        let fleet = [
            ("shard-a", FailureModel::flaky(0.5), None, "price"),
            ("shard_b", FailureModel::unreachable(), Some(FailureModel::reliable()), "price"),
            ("shard.c", FailureModel::reliable(), None, "nope"),
            ("shard-d", FailureModel::flaky(0.4), Some(FailureModel::flaky(0.4)), "price"),
        ];
        for (id, primary, replica, price) in fleet {
            let mut db = Database::new("d");
            db.execute("CREATE TABLE t (id INTEGER, brand TEXT, price REAL)").unwrap();
            db.execute("INSERT INTO t VALUES (1, 'X', 1.5), (2, 'Yz', 22.25)").unwrap();
            let connection = Connection::Database { db: Arc::new(db) };
            r.register_remote(id, connection, CostModel::wan(), primary).unwrap();
            if let Some(replica) = replica {
                r.add_replica(&id.into(), replica).unwrap();
            }
            for (path, column) in [("thing.product.brand", "brand"), ("thing.product.price", price)]
            {
                let query = format!("SELECT {column} FROM t ORDER BY id");
                let rule = ExtractionRule::Sql { query, column: column.into() };
                m.register(&o, path.parse().unwrap(), rule, id.into(), RecordScenario::MultiRecord)
                    .unwrap();
            }
        }
        let paths =
            ["thing.product.brand".parse().unwrap(), "thing.product.price".parse().unwrap()];
        let mut schemas = ExtractorManager::obtain_schemas(&m, &paths).unwrap();
        arrange(&mut schemas);
        let policy = ResiliencePolicy::default().with_retry(RetryPolicy::attempts(4));
        run(&r, schemas, Strategy::Parallel { workers: 2 }, &ResilienceContext::new(policy))
    }

    /// The planner groups by source and dispatches by estimate, so the
    /// order schemas arrive in changes nothing but the order results
    /// come back in: the same values and failures, the same ledger rows
    /// (attempts, retries, failovers, wire time and bytes), the same
    /// makespans.
    #[test]
    fn permuted_schemas_plan_the_same_exchanges() {
        let base = fleet_run(|_| ());
        let rows = &base.sources;
        assert_eq!(rows.len(), 4);
        assert!(rows.iter().any(|r| r.retries > 0), "{rows:?}");
        assert!(rows.iter().any(|r| r.failovers > 0), "{rows:?}");
        assert!(!base.results.is_empty() && !base.failures.is_empty());
        let charges = |report: &ExtractionReport| {
            let mut charges: Vec<(String, SimDuration)> = report
                .results
                .iter()
                .map(|x| (format!("{}@{}", x.mapping.path(), x.mapping.source()), x.elapsed))
                .collect();
            charges.sort();
            charges
        };
        let arrangements: [fn(&mut Vec<ExtractionSchema>); 6] = [
            |s| s.reverse(),
            |s| s.rotate_left(3),
            |s| s.rotate_left(5),
            |s| s.sort_by_key(|x| x.mapping.path().to_string()),
            |s| s.sort_by_key(|x| x.mapping.source().clone()),
            |s| {
                s.reverse();
                s.rotate_left(1);
            },
        ];
        for (n, arrange) in arrangements.into_iter().enumerate() {
            let permuted = fleet_run(arrange);
            assert_eq!(outcome_key(&permuted), outcome_key(&base), "arrangement {n}");
            assert_eq!(permuted.sources, base.sources, "arrangement {n}");
            assert_eq!(charges(&permuted), charges(&base), "arrangement {n}");
            assert_eq!(
                (permuted.simulated, permuted.simulated_serial),
                (base.simulated, base.simulated_serial),
                "arrangement {n}"
            );
        }
    }

    /// A batch's jitter seed is the FNV of `{source}:batch` read in
    /// place: the seed of the text the planner used to build.
    #[test]
    fn a_batch_seed_is_the_seed_of_its_salt_text() {
        let o = onto();
        let ids = ["DB_ID_45", "wpage-81", "shard.eu.7", "Zürich_ü-1.x", "数据源", "a:batch"];
        let mut m = MappingModule::new();
        for id in ids {
            let rule =
                ExtractionRule::Sql { query: "SELECT brand FROM t".into(), column: "brand".into() };
            m.register(
                &o,
                "thing.product.brand".parse().unwrap(),
                rule,
                id.into(),
                RecordScenario::MultiRecord,
            )
            .unwrap();
        }
        let schemas = brand_schemas(&m);
        let registry = SourceRegistry::new();
        let (lanes, ctx) = (Lanes::new(1), no_resilience());
        let strategy = Strategy::Parallel { workers: 1 };
        let env = ExtractEnv {
            strategy,
            lanes: &lanes,
            resilience: &ctx,
            deadline: None,
            traced: false,
            bind: None,
        };
        let batches = plan_batches(&registry, &schemas, &env);
        assert_eq!(batches.len(), ids.len());
        for batch in &batches {
            let text = format!("{}:batch", batch.source_id);
            assert_eq!(batch.salt, stable_seed(&text), "{text}");
        }
    }

    #[test]
    fn batching_coalesces_round_trips_per_source() {
        // Two attributes on one remote source cross the wire once.
        let o = onto();
        let (r, _) = flaky_registry(FailureModel::reliable(), &[]);
        let mut m = MappingModule::new();
        for (path, col) in [("thing.product.brand", "brand"), ("thing.product.price", "brand")] {
            m.register(
                &o,
                path.parse().unwrap(),
                ExtractionRule::Sql { query: format!("SELECT {col} FROM t"), column: col.into() },
                "R".into(),
                RecordScenario::MultiRecord,
            )
            .unwrap();
        }
        let paths: Vec<s2s_owl::AttributePath> =
            vec!["thing.product.brand".parse().unwrap(), "thing.product.price".parse().unwrap()];
        let schemas = ExtractorManager::obtain_schemas(&m, &paths).unwrap();
        let ctx = no_resilience();
        let report = run(&r, schemas, Strategy::Parallel { workers: 1 }, &ctx);
        assert!(report.is_complete(), "{:?}", report.failures);
        let health = row(&report, "R");
        assert_eq!(health.tasks, 2);
        assert_eq!(health.attempts, 1, "batch must cross the wire once");
        assert_eq!(r.get(&"R".into()).unwrap().endpoint().stats().calls, 1);
        assert!(health.wire_time > SimDuration::ZERO);
    }

    #[test]
    fn batch_retries_as_a_unit() {
        // ~50% flaky source, generous retries: the batch either fully
        // succeeds or fully fails, and retry counters are per-exchange,
        // not per-attribute.
        let (r, _) = flaky_registry(FailureModel::flaky(0.5), &[]);
        let o = onto();
        let mut m = MappingModule::new();
        for path in ["thing.product.brand", "thing.product.price"] {
            m.register(
                &o,
                path.parse().unwrap(),
                ExtractionRule::Sql { query: "SELECT brand FROM t".into(), column: "brand".into() },
                "R".into(),
                RecordScenario::MultiRecord,
            )
            .unwrap();
        }
        let paths: Vec<s2s_owl::AttributePath> =
            vec!["thing.product.brand".parse().unwrap(), "thing.product.price".parse().unwrap()];
        let schemas = ExtractorManager::obtain_schemas(&m, &paths).unwrap();
        let ctx =
            ResilienceContext::new(ResiliencePolicy::none().with_retry(RetryPolicy::attempts(8)));
        let report = run(&r, schemas, Strategy::Parallel { workers: 1 }, &ctx);
        assert!(report.is_complete(), "8 attempts at p=0.5 should land: {:?}", report.failures);
        let health = row(&report, "R");
        assert_eq!(health.attempts, r.get(&"R".into()).unwrap().endpoint().stats().calls);
        assert_eq!(health.retries, health.attempts - 1, "one exchange, rest are retries");
        // Both attribute results carry the same batch elapsed.
        assert_eq!(report.results.len(), 2);
        assert_eq!(report.results[0].elapsed, report.results[1].elapsed);
    }

    #[test]
    fn batch_fails_over_as_a_unit() {
        let o = onto();
        let (r, _) = flaky_registry(FailureModel::unreachable(), &[FailureModel::reliable()]);
        let mut m = MappingModule::new();
        for path in ["thing.product.brand", "thing.product.price"] {
            m.register(
                &o,
                path.parse().unwrap(),
                ExtractionRule::Sql { query: "SELECT brand FROM t".into(), column: "brand".into() },
                "R".into(),
                RecordScenario::MultiRecord,
            )
            .unwrap();
        }
        let paths: Vec<s2s_owl::AttributePath> =
            vec!["thing.product.brand".parse().unwrap(), "thing.product.price".parse().unwrap()];
        let schemas = ExtractorManager::obtain_schemas(&m, &paths).unwrap();
        let ctx = ResilienceContext::new(ResiliencePolicy::default());
        let report = run(&r, schemas, Strategy::Parallel { workers: 1 }, &ctx);
        assert!(report.is_complete(), "{:?}", report.failures);
        let health = row(&report, "R");
        // One failover for the whole batch, not one per attribute.
        assert_eq!(health.failovers, 1);
        assert_eq!(health.attempts, 2);
        assert_eq!(health.tasks, 2);
    }

    #[test]
    fn batch_trips_breaker_and_reports_all_rules_failed() {
        let o = onto();
        let (r, _) = flaky_registry(FailureModel::unreachable(), &[]);
        let mut m = MappingModule::new();
        for path in ["thing.product.brand", "thing.product.price"] {
            m.register(
                &o,
                path.parse().unwrap(),
                ExtractionRule::Sql { query: "SELECT brand FROM t".into(), column: "brand".into() },
                "R".into(),
                RecordScenario::MultiRecord,
            )
            .unwrap();
        }
        let paths: Vec<s2s_owl::AttributePath> =
            vec!["thing.product.brand".parse().unwrap(), "thing.product.price".parse().unwrap()];
        let schemas = ExtractorManager::obtain_schemas(&m, &paths).unwrap();
        let policy = ResiliencePolicy::none()
            .with_breaker(BreakerConfig::new(2, SimDuration::from_millis(60_000)));
        let ctx = ResilienceContext::new(policy);
        let mut failures = Vec::new();
        for _ in 0..4 {
            let report = run(&r, schemas.clone(), Strategy::Parallel { workers: 1 }, &ctx);
            // The failed exchange fails every batched rule.
            assert_eq!(report.failures.len(), 2);
            failures.extend(report.failures);
        }
        // Two real exchanges tripped the breaker; later batches were
        // rejected without touching the endpoint.
        assert_eq!(r.get(&"R".into()).unwrap().endpoint().stats().calls, 2);
        assert_eq!(ctx.breaker("R").unwrap().state(), BreakerState::Open);
        assert!(failures[4..].iter().all(|f| matches!(f.error, S2sError::CircuitOpen { .. })));
    }

    #[test]
    fn breaker_rejected_primary_is_not_a_failover() {
        // Regression: skipping past a breaker-rejected primary used to
        // count as a failover even though no network attempt was made.
        let (r, m) = flaky_registry(FailureModel::unreachable(), &[FailureModel::reliable()]);
        let policy = ResiliencePolicy::default()
            .with_breaker(BreakerConfig::new(1, SimDuration::from_millis(60_000)));
        let ctx = ResilienceContext::new(policy);
        // First task: real attempt on the primary fails (tripping its
        // breaker), then a genuine failover to the replica.
        let first = run_serial(&r, brand_schemas(&m), &ctx);
        assert!(first.is_complete());
        assert_eq!(row(&first, "R").failovers, 1);
        assert_eq!(ctx.breaker("R").unwrap().state(), BreakerState::Open);
        // Second task: the primary is breaker-rejected with no attempt,
        // so serving from the replica is not a failover.
        let second = run_serial(&r, brand_schemas(&m), &ctx);
        assert!(second.is_complete());
        let health = row(&second, "R");
        assert_eq!(health.breaker_rejections, 1);
        assert_eq!(health.attempts, 1);
        assert_eq!(health.failovers, 0, "no real attempt preceded the switch");
    }

    #[test]
    fn wrapper_error_does_not_sink_its_batch() {
        let o = onto();
        let (r, _) = flaky_registry(FailureModel::reliable(), &[]);
        let mut m = MappingModule::new();
        m.register(
            &o,
            "thing.product.brand".parse().unwrap(),
            ExtractionRule::Sql { query: "SELECT brand FROM t".into(), column: "brand".into() },
            "R".into(),
            RecordScenario::MultiRecord,
        )
        .unwrap();
        m.register(
            &o,
            "thing.product.price".parse().unwrap(),
            ExtractionRule::Sql { query: "SELECT oops FROM t".into(), column: "oops".into() },
            "R".into(),
            RecordScenario::MultiRecord,
        )
        .unwrap();
        let paths: Vec<s2s_owl::AttributePath> =
            vec!["thing.product.brand".parse().unwrap(), "thing.product.price".parse().unwrap()];
        let schemas = ExtractorManager::obtain_schemas(&m, &paths).unwrap();
        let ctx = no_resilience();
        let report = run(&r, schemas, Strategy::Parallel { workers: 1 }, &ctx);
        // The bad rule fails individually; the good rule still ships in
        // a 1-section batch.
        assert_eq!(report.results.len(), 1);
        assert_eq!(report.failures.len(), 1);
        assert!(report.failures[0].attribute.contains("price"));
        assert_eq!(row(&report, "R").attempts, 1);
        assert_eq!(row(&report, "R").failed_tasks, 1);
    }

    #[test]
    fn remote_failure_injection_surfaces_as_net_error() {
        let o = onto();
        let mut db = Database::new("d");
        db.execute("CREATE TABLE t (a TEXT)").unwrap();
        db.execute("INSERT INTO t VALUES ('x')").unwrap();
        let mut r = SourceRegistry::new();
        r.register_remote(
            "FLAKY",
            Connection::Database { db: Arc::new(db) },
            CostModel::lan(),
            FailureModel {
                p_unreachable: 1.0,
                p_timeout: 0.0,
                timeout: SimDuration::from_millis(1),
            },
        )
        .unwrap();
        let mut m = MappingModule::new();
        m.register(
            &o,
            "thing.product.brand".parse().unwrap(),
            ExtractionRule::Sql { query: "SELECT a FROM t".into(), column: "a".into() },
            "FLAKY".into(),
            RecordScenario::MultiRecord,
        )
        .unwrap();
        assert!(matches!(extract_one(&r, m.iter().next().unwrap()), Err(S2sError::Net(_))));
    }

    /// A registry with one remote database source `R`: primary with the
    /// given failure model, plus any replicas.
    fn flaky_registry(
        primary: FailureModel,
        replicas: &[FailureModel],
    ) -> (SourceRegistry, MappingModule) {
        let o = onto();
        let mut db = Database::new("d");
        db.execute("CREATE TABLE t (brand TEXT)").unwrap();
        db.execute("INSERT INTO t VALUES ('X')").unwrap();
        let mut r = SourceRegistry::new();
        r.register_remote(
            "R",
            Connection::Database { db: Arc::new(db) },
            CostModel::lan(),
            primary,
        )
        .unwrap();
        for replica in replicas {
            r.add_replica(&"R".into(), *replica).unwrap();
        }
        let mut m = MappingModule::new();
        m.register(
            &o,
            "thing.product.brand".parse().unwrap(),
            ExtractionRule::Sql { query: "SELECT brand FROM t".into(), column: "brand".into() },
            "R".into(),
            RecordScenario::MultiRecord,
        )
        .unwrap();
        (r, m)
    }

    fn brand_schemas(m: &MappingModule) -> Vec<ExtractionSchema> {
        ExtractorManager::obtain_schemas(m, &["thing.product.brand".parse().unwrap()]).unwrap()
    }

    #[test]
    fn failover_reaches_healthy_replica() {
        let (r, m) = flaky_registry(FailureModel::unreachable(), &[FailureModel::reliable()]);
        let ctx = ResilienceContext::new(ResiliencePolicy::default());
        let report = run_serial(&r, brand_schemas(&m), &ctx);
        assert!(report.is_complete(), "{:?}", report.failures);
        assert_eq!(report.completeness(), 1.0);
        let health = row(&report, "R");
        assert_eq!(health.failovers, 1);
        assert_eq!(health.attempts, 2);
        assert_eq!(health.failed_tasks, 0);
    }

    #[test]
    fn failover_disabled_keeps_failure_on_primary() {
        let (r, m) = flaky_registry(FailureModel::unreachable(), &[FailureModel::reliable()]);
        let ctx = no_resilience();
        let report = run_serial(&r, brand_schemas(&m), &ctx);
        assert!(!report.is_complete());
        assert_eq!(report.completeness(), 0.0);
        let health = row(&report, "R");
        assert_eq!(health.failovers, 0);
        assert_eq!(health.failed_tasks, 1);
        assert!(matches!(
            report.failures[0].error,
            S2sError::Net(s2s_netsim::NetError::Unreachable { .. })
        ));
    }

    #[test]
    fn open_breaker_stops_calling_a_dead_source() {
        let (r, m) = flaky_registry(FailureModel::unreachable(), &[]);
        let policy = ResiliencePolicy::none()
            .with_breaker(BreakerConfig::new(2, SimDuration::from_millis(60_000)));
        let ctx = ResilienceContext::new(policy);
        let mut failures = Vec::new();
        for _ in 0..8 {
            let report = run_serial(&r, brand_schemas(&m), &ctx);
            failures.extend(report.failures);
        }
        // Two real attempts tripped the breaker; the remaining six tasks
        // were rejected without touching the endpoint.
        let endpoint = r.get(&"R".into()).unwrap().endpoint().clone();
        assert_eq!(endpoint.stats().calls, 2, "breaker failed to short-circuit");
        assert_eq!(ctx.breaker("R").unwrap().state(), BreakerState::Open);
        assert_eq!(failures.len(), 8);
        assert!(failures[7..].iter().all(|f| matches!(f.error, S2sError::CircuitOpen { .. })));
    }

    #[test]
    fn breaker_cooldown_admits_probe_after_clock_advance() {
        let (r, m) = flaky_registry(FailureModel::unreachable(), &[]);
        let policy = ResiliencePolicy::none()
            .with_breaker(BreakerConfig::new(1, SimDuration::from_millis(100)));
        let ctx = ResilienceContext::new(policy);
        let _ = run_serial(&r, brand_schemas(&m), &ctx);
        assert_eq!(ctx.breaker("R").unwrap().state(), BreakerState::Open);
        ctx.advance_clock(SimDuration::from_millis(200));
        let _ = run_serial(&r, brand_schemas(&m), &ctx);
        // The probe was admitted (and failed again): the endpoint saw a
        // second real call.
        let endpoint = r.get(&"R".into()).unwrap().endpoint().clone();
        assert_eq!(endpoint.stats().calls, 2);
        assert_eq!(ctx.breaker("R").unwrap().counters().half_opened, 1);
    }

    #[test]
    fn wrapper_errors_are_permanent_and_skip_failover() {
        let o = onto();
        let (r, _) = flaky_registry(FailureModel::reliable(), &[FailureModel::reliable()]);
        let mut m = MappingModule::new();
        m.register(
            &o,
            "thing.product.brand".parse().unwrap(),
            ExtractionRule::Sql { query: "SELECT oops FROM t".into(), column: "oops".into() },
            "R".into(),
            RecordScenario::MultiRecord,
        )
        .unwrap();
        let ctx = ResilienceContext::new(
            ResiliencePolicy::default().with_retry(RetryPolicy::attempts(3)),
        );
        let report = run_serial(&r, brand_schemas(&m), &ctx);
        assert!(!report.is_complete());
        let health = row(&report, "R");
        // The failure happened in the wrapper, before any network leg:
        // no attempts, no retries, no failover.
        assert_eq!((health.attempts, health.retries, health.failovers), (0, 0, 0));
        assert_eq!(report.failures[0].error.failure_class(), FailureClass::Permanent);
    }

    #[test]
    fn completeness_ratio_reflects_partial_results() {
        let report = ExtractionReport::default();
        assert_eq!(report.completeness(), 1.0);
        let (r, m) = flaky_registry(FailureModel::unreachable(), &[]);
        let mut schemas = brand_schemas(&m);
        schemas.extend(brand_schemas(&m));
        let ctx = no_resilience();
        let report = run_serial(&r, schemas, &ctx);
        assert_eq!(report.completeness(), 0.0);
    }

    /// `n` single-row remote databases behind `path`, each mapping
    /// `brand`, and the schemas that read all of them.
    fn remote_fleet(n: usize, path: CostModel) -> (SourceRegistry, Vec<ExtractionSchema>) {
        let o = onto();
        let mut r = SourceRegistry::new();
        let mut m = MappingModule::new();
        for i in 0..n {
            let mut db = Database::new("d");
            db.execute("CREATE TABLE t (brand TEXT)").unwrap();
            db.execute("INSERT INTO t VALUES ('X')").unwrap();
            let id = format!("DB_{i}");
            r.register_remote(
                id.as_str(),
                Connection::Database { db: Arc::new(db) },
                path,
                FailureModel::reliable(),
            )
            .unwrap();
            m.register(
                &o,
                "thing.product.brand".parse().unwrap(),
                ExtractionRule::Sql { query: "SELECT brand FROM t".into(), column: "brand".into() },
                id.as_str().into(),
                RecordScenario::MultiRecord,
            )
            .unwrap();
        }
        let schemas = brand_schemas(&m);
        assert_eq!(schemas.len(), n);
        (r, schemas)
    }

    #[test]
    fn simulated_time_parallel_not_more_than_serial() {
        let (r, schemas) = remote_fleet(6, CostModel::wan());
        let six = Strategy::Parallel { workers: 6 };
        let report = run(&r, schemas, six, &no_resilience());
        assert!(report.is_complete());
        assert!(report.simulated < report.simulated_serial);
    }

    /// With every exchange in flight at once the caller owes — here to
    /// the enclosing defer scope, like a client of the E13 reactor
    /// harness — exactly the longest wait; one at a time, the sum; two
    /// at a time, the 2-lane list schedule.
    #[test]
    fn reactor_strategy_owes_the_longest_paced_wait_serial_owes_the_sum() {
        // 1 000 wall us per simulated ms: a paced wait equals its charge.
        let paced = CostModel::wan().with_pace(1_000);
        let round = |strategy| {
            let (r, schemas) = remote_fleet(4, paced);
            defer_pacing(|| run(&r, schemas, strategy, &no_resilience()))
        };
        let (overlapped, deferred_us) = round(Strategy::Reactor);
        let costs = overlapped.results.iter().map(|x| x.elapsed);
        let (longest, sum) = (costs.clone().max().unwrap(), costs.sum::<SimDuration>());
        assert!(longest.as_micros() * 4 > sum.as_micros(), "four jittered costs");
        assert_eq!((overlapped.simulated, deferred_us), (longest, longest.as_micros()));
        // Same seeds, same charges — only the dispatch differs.
        let (serial, deferred_us) = round(Strategy::Parallel { workers: 1 });
        assert_eq!(outcome_key(&serial), outcome_key(&overlapped));
        assert_eq!((serial.simulated, deferred_us), (sum, sum.as_micros()));
        // Equal estimates, so dispatch order is source order — the
        // order of `results`.
        let (two_wide, deferred_us) = round(Strategy::Parallel { workers: 2 });
        assert_eq!(outcome_key(&two_wide), outcome_key(&overlapped));
        let charges: Vec<_> = two_wide.results.iter().map(|x| x.elapsed).collect();
        let listed = makespan(&charges, 2);
        assert!(longest < listed && listed < sum, "neither of the other two rules");
        assert_eq!((two_wide.simulated, deferred_us), (listed, listed.as_micros()));
    }
}
