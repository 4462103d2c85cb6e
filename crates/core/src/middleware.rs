//! The S2S middleware façade.
//!
//! Ties the architecture of Figure 1 together: ontology schema, data
//! sources, mapping module, query handler, extractor manager, instance
//! generator. One [`S2s`] value is one deployed integration system.

use std::sync::Arc;
use std::time::Instant;

use parking_lot::RwLock;

use s2s_netsim::{
    AdmissionConfig, AdmissionController, AdmissionGuard, AdmissionStats, ChangeKind, CostModel,
    FailureModel, Lanes, ShedReason, SimDuration,
};
use s2s_obs::{names, Span, SpanKind, SpanOutcome, Trace};
use s2s_owl::{AttributePath, Ontology};

use crate::engine::{self, CacheStats, CachedResult, DependencySet, PlanCache, QueryResultCache};
use crate::error::S2sError;
use crate::extract::{
    AttributeResult, ExtractEnv, ExtractionFailure, ExtractionReport, ExtractionSchema,
    ExtractorManager, ResilienceContext, ResiliencePolicy, Strategy,
};
use crate::instance::{self, Individual, InstanceSet, OutputFormat};
use crate::ledger::{self, SourceLedger, Totals};
use crate::mapping::{ExtractionRule, MappingModule, RecordScenario};
use crate::planner::Bind;
use crate::query::{self, QueryPlan, S2sqlQuery};
use crate::source::{Connection, SourceRegistry};
use crate::view::SemanticViews;

/// Statistics of one query execution. A fresh query's per-source
/// figures are its ledger rows summed ([`QueryOutcome::sources`]).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct QueryStats {
    /// Number of extraction tasks dispatched.
    pub tasks: usize,
    /// Number of failed tasks.
    pub failed_tasks: usize,
    /// Endpoint round trips this query actually put on the wire: one
    /// per source, whose attributes share one exchange. Every attempt
    /// that reaches an endpoint counts, so retries, failover attempts,
    /// and hedged replica attempts each add a trip. Calls refused by an
    /// open circuit breaker do **not** count: the breaker rejects them
    /// before any wire exchange, and they are tallied separately in
    /// [`SourceLedger::breaker_rejections`]. Shed queries likewise
    /// contribute zero round trips — admission control refuses them
    /// before any wire traffic.
    pub round_trips: u64,
    /// This query's one plan-cache lookup (always active; a hit skips
    /// the parse/validate/plan front half) and whether publishing its
    /// fresh plan evicted another. Zeros for replayed and shed queries.
    /// Like the one below, tallied from this query's own lookup and
    /// insert — other clients of a shared engine never show up here.
    pub plan_cache: CacheStats,
    /// This query's one result-cache lookup (zeros when the result
    /// cache is disabled). A hit means the whole answer was replayed
    /// without touching any source.
    pub result_cache: CacheStats,
    /// Fraction of requested (mapped) attributes answered, in
    /// `[0, 1]`; `1.0` means no degradation.
    pub completeness: f64,
    /// Simulated completion time under the configured strategy.
    pub simulated: SimDuration,
    /// Simulated completion time had extraction run serially.
    pub simulated_serial: SimDuration,
    /// `true` when admission control refused this query (load
    /// shedding): the answer is empty and honestly labelled
    /// (`completeness` is `0.0`), and nothing past the result-cache
    /// lookup ran — no plan work, no wire traffic, no cache writes.
    pub shed: bool,
    /// [`SourceLedger::wire_bytes`], summed.
    pub wire_bytes: u64,
    /// [`SourceLedger::wire_response_bytes`], summed.
    pub wire_response_bytes: u64,
    /// Slices served from a materialized semantic view without
    /// re-extraction (0 when views are disabled): fresh views plus
    /// views cheaply advanced past change events that provably did not
    /// touch their field.
    pub view_hits: u64,
    /// View slices incrementally re-extracted because a change event
    /// touched their source-side field.
    pub view_refreshes: u64,
    /// View slices re-extracted from scratch because a feed gap made
    /// the delta unsound.
    pub view_full_refreshes: u64,
    /// Change-feed polls this query issued against source endpoints.
    pub feed_polls: u64,
    /// The widest staleness window among view-served slices: simulated
    /// time between a slice's last refresh and this query reading it.
    pub view_staleness: SimDuration,
}

/// Per-query execution options for the overload layer: deadline
/// budget and tenant attribution. The zero-cost default (no deadline,
/// tenant `"default"`) is what [`S2s::query`] uses.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryOptions {
    /// Simulated-time budget for the whole query. Each source exchange
    /// runs under it (sources start together in the parallel model);
    /// when it expires the query returns a partial, honestly-labelled
    /// answer instead of blocking. `None` = unbounded.
    pub deadline: Option<SimDuration>,
    /// Tenant id for per-tenant admission fairness (deficit round
    /// robin) and backlog gauges.
    pub tenant: String,
}

impl QueryOptions {
    /// Sets the deadline budget.
    pub fn with_deadline(mut self, deadline: SimDuration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the tenant id.
    pub fn with_tenant(mut self, tenant: impl Into<String>) -> Self {
        self.tenant = tenant.into();
        self
    }
}

impl Default for QueryOptions {
    fn default() -> Self {
        QueryOptions { deadline: None, tenant: "default".into() }
    }
}

/// The outcome of an S2SQL query: the plan, the generated instances,
/// and execution statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryOutcome {
    /// The validated plan the query handler produced.
    pub plan: QueryPlan,
    /// The OWL instances (graph + structured view + errors).
    pub instances: InstanceSet,
    /// Execution statistics.
    pub stats: QueryStats,
    /// The query's ledger: one row per source it read, in id order
    /// ([`crate::ledger`]). Empty for replays and shed queries.
    pub sources: Vec<SourceLedger>,
    /// The query's trace tree (`Some` only when tracing is enabled via
    /// [`S2s::with_tracing`]).
    pub trace: Option<Trace>,
}

impl QueryOutcome {
    /// The individuals that satisfied the query: the answer's view,
    /// built on its first read ([`instance::Individuals`]).
    pub fn individuals(&self) -> &[Individual] {
        &self.instances.individuals
    }

    /// The extraction failures, if any.
    pub fn errors(&self) -> &[ExtractionFailure] {
        &self.instances.errors
    }

    /// Serializes the result (§2.6 output formats).
    pub fn render(&self, ontology: &Ontology, format: OutputFormat) -> String {
        instance::render(&self.instances, ontology, format)
    }

    /// The ledger row of source `id`, if the query read it.
    pub fn source(&self, id: &str) -> Option<&SourceLedger> {
        let i = self.sources.binary_search_by(|r| r.source.as_str().cmp(id)).ok()?;
        Some(&self.sources[i])
    }

    /// Endpoint retries spent across all sources (resilience layer).
    pub fn retries(&self) -> u64 {
        ledger::total(&self.sources).sum.retries
    }

    /// Failovers to replica endpoints across all sources.
    pub fn failovers(&self) -> u64 {
        ledger::total(&self.sources).sum.failovers
    }

    /// Source exchanges abandoned because the query's deadline budget
    /// ran out; each one fails its tasks honestly instead of blocking.
    pub fn deadline_hits(&self) -> u64 {
        ledger::total(&self.sources).sum.deadline_hits
    }

    /// Hedged replica requests launched against straggling primaries.
    pub fn hedges(&self) -> u64 {
        ledger::total(&self.sources).sum.hedges
    }

    /// Hedged requests whose replica reply beat the primary
    /// (`hedge_wins <= hedges`).
    pub fn hedge_wins(&self) -> u64 {
        ledger::total(&self.sources).sum.hedge_wins
    }
}

/// The Syntactic-to-Semantic middleware.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use s2s_core::middleware::S2s;
/// use s2s_core::mapping::{ExtractionRule, RecordScenario};
/// use s2s_core::source::Connection;
/// use s2s_minidb::Database;
/// use s2s_owl::Ontology;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let ontology = Ontology::builder("http://example.org/schema#")
///     .class("Product", None)?
///     .datatype_property("brand", "Product", "http://www.w3.org/2001/XMLSchema#string")?
///     .build()?;
///
/// let mut db = Database::new("catalog");
/// db.execute("CREATE TABLE w (id INTEGER PRIMARY KEY, brand TEXT)")?;
/// db.execute("INSERT INTO w VALUES (1, 'Seiko'), (2, 'Casio')")?;
///
/// let mut s2s = S2s::new(ontology);
/// s2s.register_source("DB_ID_45", Connection::Database { db: Arc::new(db) })?;
/// s2s.register_attribute(
///     "thing.product.brand",
///     ExtractionRule::Sql { query: "SELECT brand FROM w ORDER BY id".into(), column: "brand".into() },
///     "DB_ID_45",
///     RecordScenario::MultiRecord,
/// )?;
///
/// let outcome = s2s.query("SELECT product WHERE brand='Seiko'")?;
/// assert_eq!(outcome.individuals().len(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct S2s {
    ontology: Arc<Ontology>,
    registry: RwLock<SourceRegistry>,
    mappings: RwLock<MappingModule>,
    strategy: Strategy,
    plans: Arc<PlanCache>,
    results: Option<Arc<QueryResultCache>>,
    lanes: Lanes,
    tracing: bool,
    resilience: Arc<ResilienceContext>,
    admission: Option<Arc<AdmissionController>>,
    views: Option<Arc<SemanticViews>>,
}

// Keeps the query path one short function per stage.
#[warn(clippy::too_many_lines)]
impl S2s {
    /// Creates a middleware instance over an ontology schema, with one
    /// exchange in flight at a time (`Parallel { workers: 1 }`).
    pub fn new(ontology: Ontology) -> Self {
        S2s {
            ontology: Arc::new(ontology),
            registry: RwLock::new(SourceRegistry::new()),
            mappings: RwLock::new(MappingModule::new()),
            strategy: Strategy::Parallel { workers: 1 },
            plans: Arc::new(engine::plan_cache()),
            results: None,
            lanes: Lanes::new(1),
            tracing: false,
            resilience: Arc::new(ResilienceContext::default()),
            admission: None,
            views: None,
        }
    }

    /// Enables materialized semantic views ([`crate::view`]): every
    /// extracted `(source, attribute)` slice is materialized with the
    /// source data version it reflects, and repeat queries maintain it
    /// incrementally against the source's change feed — serving fresh
    /// slices with zero wire cost, advancing past events that provably
    /// do not touch the slice's field for the price of a feed poll, and
    /// re-extracting only touched slices. A feed gap falls back to a
    /// full re-extract, so a view-served answer is always
    /// fingerprint-identical to a recompute from scratch. Off by
    /// default.
    pub fn with_views(mut self) -> Self {
        self.views = Some(Arc::default());
        self
    }

    /// Enables per-query trace trees: every [`QueryOutcome`] carries a
    /// [`Trace`] (`query → parse / plan / map → batch → rule /
    /// attempt`) with simulated and wall-clock durations, outcomes, and
    /// cache provenance per span. Off by default — when disabled the
    /// pipeline allocates nothing for tracing.
    pub fn with_tracing(mut self) -> Self {
        self.tracing = true;
        self
    }

    /// Whether per-query tracing is enabled.
    pub fn tracing(&self) -> bool {
        self.tracing
    }

    /// Installs a resilience policy: retry/backoff per endpoint call,
    /// failover across replica endpoints, optional circuit breakers.
    /// Breaker state and the virtual clock persist across queries on
    /// this instance.
    pub fn with_resilience(mut self, policy: ResiliencePolicy) -> Self {
        self.resilience = Arc::new(ResilienceContext::new(policy));
        self
    }

    /// The resilience context (breaker board + virtual clock), for
    /// inspection or clock manipulation in experiments.
    pub fn resilience(&self) -> &ResilienceContext {
        &self.resilience
    }

    /// Installs admission control: a bounded queue with per-tenant
    /// deficit-round-robin dispatch and early load shedding. Queries
    /// that would overflow the queue — or whose estimated wait already
    /// exceeds their deadline budget — are refused at arrival with an
    /// honestly-labelled empty answer ([`QueryStats::shed`]) instead of
    /// queueing past their budget. Result-cache hits are always served;
    /// only fresh work passes the gate.
    pub fn with_admission(mut self, config: AdmissionConfig) -> Self {
        self.admission = Some(Arc::new(AdmissionController::new(config)));
        self
    }

    /// The admission controller, when admission control is enabled.
    pub fn admission(&self) -> Option<&AdmissionController> {
        self.admission.as_deref()
    }

    /// Admission counters (`None` when admission control is disabled).
    pub fn admission_stats(&self) -> Option<AdmissionStats> {
        self.admission.as_ref().map(|c| c.stats())
    }

    /// Applies a data mutation to a registered source: swaps its
    /// connection snapshot for `connection` and records a change event
    /// (`kind`, touching `fields`; empty = potentially everything) on
    /// the source's feed, bumping its version. Returns the new version.
    ///
    /// No cache is touched. Cached answers and materialized views both
    /// record the versions they read and compare them with the
    /// registry's when they are read: a result-cache entry that read
    /// this source stops being served, and a view slice refreshes (or
    /// advances) against the feed. An in-flight query that read the old
    /// snapshot may still publish its answer; no lookup serves it.
    ///
    /// # Errors
    ///
    /// Returns [`S2sError::UnknownSource`] for unregistered ids and
    /// [`S2sError::MutationKindMismatch`] when `connection` is a
    /// different source kind; a failed mutation bumps no version.
    pub fn mutate_source(
        &self,
        id: &str,
        connection: Connection,
        kind: ChangeKind,
        fields: Vec<String>,
    ) -> Result<u64, S2sError> {
        let version = self.registry.write().apply_mutation(&id.into(), connection, kind, fields)?;
        if s2s_obs::enabled() {
            s2s_obs::global().counter(names::SOURCE_MUTATIONS_TOTAL).inc();
        }
        Ok(version)
    }

    /// Sets how far a query's wire exchanges overlap (one at a time,
    /// `workers` at a time, or all in flight at once). Wrappers and wire
    /// legs run on the calling thread under every strategy; the strategy
    /// decides the simulated makespan and the one paced wait the caller
    /// pays. Under [`Strategy::Parallel`] the `workers` slots belong to
    /// this instance, so concurrent callers queue for them like clients
    /// of one k-server mediator; the engine spawns no thread for it.
    pub fn with_strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self.lanes = Lanes::new(strategy.workers());
        self
    }

    /// Enables the semantic query-result cache: whole answers are
    /// replayed for repeat queries (keyed on the query's canonical
    /// rendering, at most 128 of them) while
    /// every source they read is at the version they read it, and until
    /// a mapping registration drops them. Off by default.
    pub fn with_result_cache(mut self) -> Self {
        self.results = Some(Arc::default());
        self
    }

    /// Plan-cache hit/miss counters (always active).
    pub fn plan_cache_stats(&self) -> CacheStats {
        self.plans.stats()
    }

    /// Number of entries currently in the plan cache (cache-hygiene
    /// inspection: shed and deadline-exceeded queries add none).
    pub fn plan_cache_len(&self) -> usize {
        self.plans.len()
    }

    /// Number of entries currently in the result cache (`0` when
    /// disabled), stale ones included until they are overwritten.
    pub fn result_cache_len(&self) -> usize {
        self.results.as_ref().map(|c| c.len()).unwrap_or(0)
    }

    /// Result-cache hit/miss counters (zeros when disabled).
    pub fn result_cache_stats(&self) -> CacheStats {
        self.results.as_ref().map(|c| c.stats()).unwrap_or_default()
    }

    /// Result-cache entries dropped by mapping registrations; a data
    /// mutation drops none.
    pub fn result_cache_invalidations(&self) -> u64 {
        self.results.as_ref().map(|c| c.invalidations()).unwrap_or(0)
    }

    /// The ontology schema.
    pub fn ontology(&self) -> &Ontology {
        &self.ontology
    }

    /// The current extraction strategy.
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// Registers a local data source (paper §2.3.2).
    ///
    /// # Errors
    ///
    /// Returns [`S2sError::DuplicateSource`] on id collision and
    /// [`S2sError::IriSegmentCollision`] when another id mints under the
    /// same IRI segment.
    pub fn register_source(&mut self, id: &str, connection: Connection) -> Result<(), S2sError> {
        self.registry.write().register_local(id, connection)
    }

    /// Registers a remote data source behind a simulated network
    /// endpoint.
    ///
    /// # Errors
    ///
    /// Returns [`S2sError::DuplicateSource`] on id collision and
    /// [`S2sError::IriSegmentCollision`] when another id mints under the
    /// same IRI segment.
    pub fn register_remote_source(
        &mut self,
        id: &str,
        connection: Connection,
        cost: CostModel,
        failure: FailureModel,
    ) -> Result<(), S2sError> {
        self.registry.write().register_remote(id, connection, cost, failure)
    }

    /// Registers a remote data source with an explicit endpoint seed
    /// and a scripted fault schedule — the deterministic-seeding hook
    /// used by the conformance harness (`s2s-conform`) so scenario
    /// randomness is independent of source ids. `seed: None` keeps the
    /// default id-derived seed.
    ///
    /// # Errors
    ///
    /// Returns [`S2sError::DuplicateSource`] on id collision and
    /// [`S2sError::IriSegmentCollision`] when another id mints under the
    /// same IRI segment.
    pub fn register_remote_source_detailed(
        &mut self,
        id: &str,
        connection: Connection,
        cost: CostModel,
        failure: FailureModel,
        seed: Option<u64>,
        schedule: s2s_netsim::FaultSchedule,
    ) -> Result<(), S2sError> {
        self.registry
            .write()
            .register_remote_detailed(id, connection, cost, failure, seed, schedule)
    }

    /// Appends one replica endpoint to an already registered remote
    /// source, reusing the primary's cost model. Use this to give a
    /// detailed-registered source (explicit seed, fault schedule) a
    /// standby for failover or hedged dispatch.
    ///
    /// # Errors
    ///
    /// Returns [`S2sError::UnknownSource`] if `id` is not registered.
    pub fn add_source_replica(&mut self, id: &str, failure: FailureModel) -> Result<(), S2sError> {
        self.registry.write().add_replica(&id.into(), failure)
    }

    /// Registers an attribute mapping — the full 3-step workflow of
    /// Fig. 3: `attribute path = rule, source`.
    ///
    /// Cache consequences depend on what the registration is. A *fresh*
    /// `(path, source)` pair adds a data contributor existing answers
    /// never saw, so every cached answer is cleared wholesale — no
    /// dependency set can account for data an entry is missing. An
    /// **edit** (re-registering an existing pair with a new rule)
    /// invalidates surgically: only answers and views that depended on
    /// the edited source are dropped; hot entries for untouched sources
    /// keep replaying, and plans — derived from the ontology and the
    /// query text alone — all stay.
    ///
    /// # Errors
    ///
    /// Returns [`S2sError::Owl`] for unresolvable paths and
    /// [`S2sError::UnknownSource`] when the source id is unregistered.
    pub fn register_attribute(
        &mut self,
        path: &str,
        rule: ExtractionRule,
        source: &str,
        scenario: RecordScenario,
    ) -> Result<(), S2sError> {
        let path: AttributePath = path.parse().map_err(S2sError::Owl)?;
        self.registry.read().require(&source.into())?;
        let displaced =
            self.mappings.write().register(&self.ontology, path, rule, source.into(), scenario)?;
        // Neither drop below is visible to a read: an edit moves no
        // version, and it may keep the rule text a view slice is keyed
        // by while changing the record scenario the slice was cut to.
        if displaced.is_some() {
            if let Some(r) = &self.results {
                r.invalidate_dependents(source);
            }
            if let Some(v) = &self.views {
                v.remove_source(source);
            }
        } else if let Some(r) = &self.results {
            // A new mapping may contribute to any cached answer, which
            // no dependency set can see.
            r.invalidate_all();
        }
        Ok(())
    }

    /// Loads a mapping-specification document (see [`crate::spec`]) and
    /// registers every entry. All referenced sources must already be
    /// registered.
    ///
    /// Returns the number of mappings registered.
    ///
    /// # Errors
    ///
    /// Returns the spec parse error, [`S2sError::UnknownSource`] for
    /// unregistered source ids, or [`S2sError::Owl`] for unresolvable
    /// paths. Registration is not transactional: entries before the
    /// failing one remain registered.
    pub fn load_spec(&mut self, document: &str) -> Result<usize, S2sError> {
        let specs = crate::spec::parse(document)?;
        let n = specs.len();
        for s in specs {
            self.register_attribute(&s.path, s.rule, &s.source, s.scenario)?;
        }
        Ok(n)
    }

    /// Bootstraps a registered source: introspects its native schema
    /// (`CREATE TABLE` metadata, XML shape, HTML tag survey, labeled
    /// text headers) and derives candidate attribute mappings with
    /// generated extraction rules, confidence scores, and an explicit
    /// conflict list. Registers nothing — inspect, adjust
    /// ([`crate::bootstrap::BootstrapReport::resolve`] /
    /// [`crate::bootstrap::BootstrapReport::reject`]), then pass the
    /// report to [`Self::apply_bootstrap`], or use
    /// [`Self::register_bootstrapped`] for the one-shot path.
    ///
    /// # Errors
    ///
    /// Returns [`S2sError::UnknownSource`] for an unregistered id and
    /// [`S2sError::Bootstrap`] when introspection finds no schema.
    pub fn bootstrap_source(
        &self,
        id: &str,
    ) -> Result<crate::bootstrap::BootstrapReport, S2sError> {
        let registry = self.registry.read();
        let source = registry.require(&id.into())?;
        let report = crate::bootstrap::bootstrap(&self.ontology, id, source.connection())?;
        if s2s_obs::enabled() {
            let metrics = s2s_obs::global();
            metrics.counter(names::BOOTSTRAP_SOURCES_TOTAL).inc();
            metrics.counter(names::BOOTSTRAP_CANDIDATES_TOTAL).add(report.candidates.len() as u64);
            metrics.counter(names::BOOTSTRAP_CONFLICTS_TOTAL).add(report.conflicts.len() as u64);
        }
        Ok(report)
    }

    /// Registers every accepted, not-yet-applied candidate of a
    /// bootstrap report through the regular
    /// [`Self::register_attribute`] path — bootstrapped mappings flow
    /// through rule compilation, caches, planner capability analysis,
    /// and views exactly like hand-written ones. Applied candidates are
    /// marked so a report can be re-applied incrementally after further
    /// [`crate::bootstrap::BootstrapReport::resolve`] calls.
    ///
    /// Returns the number of mappings registered.
    ///
    /// # Errors
    ///
    /// Propagates [`Self::register_attribute`] errors; candidates
    /// before the failing one remain registered (and marked applied).
    pub fn apply_bootstrap(
        &mut self,
        report: &mut crate::bootstrap::BootstrapReport,
    ) -> Result<usize, S2sError> {
        let mut applied = 0usize;
        for c in report.candidates.iter_mut().filter(|c| c.accepted && !c.applied) {
            self.register_attribute(&c.path, c.rule.clone(), &report.source, c.scenario)?;
            c.applied = true;
            applied += 1;
        }
        if applied > 0 && s2s_obs::enabled() {
            s2s_obs::global().counter(names::BOOTSTRAP_APPLIED_TOTAL).add(applied as u64);
        }
        Ok(applied)
    }

    /// One-shot bootstrap: [`Self::bootstrap_source`] followed by
    /// [`Self::apply_bootstrap`]. The returned report shows what was
    /// registered (`applied` candidates) and what was left for the
    /// caller (conflicts, proposals).
    ///
    /// # Errors
    ///
    /// Propagates both phases' errors.
    pub fn register_bootstrapped(
        &mut self,
        id: &str,
    ) -> Result<crate::bootstrap::BootstrapReport, S2sError> {
        let mut report = self.bootstrap_source(id)?;
        self.apply_bootstrap(&mut report)?;
        Ok(report)
    }

    /// Number of registered sources.
    pub fn source_count(&self) -> usize {
        self.registry.read().len()
    }

    /// Number of registered attribute mappings.
    pub fn mapping_count(&self) -> usize {
        self.mappings.read().len()
    }

    /// Runs an S2SQL query end-to-end: parse → plan → obtain extraction
    /// schemas → extract (Fig. 5) → generate instances (§2.6).
    ///
    /// Attributes of the plan that have no mapping are simply not
    /// extracted (open-world); a query whose *condition* attributes are
    /// unmapped yields an empty result with no error, matching the
    /// paper's best-effort integration model. Extraction failures are
    /// reported inside the outcome, not as an `Err`.
    ///
    /// Takes `&self`: the engine is `Send + Sync`, so any number of
    /// threads may query one shared (`Arc`-wrapped) instance
    /// concurrently; each runs its extraction on its own thread, and
    /// their paced waits share the lanes sized by the strategy. Repeat
    /// queries are answered by the plan cache (always on) and, when
    /// enabled, the query-result cache — see [`crate::engine`].
    ///
    /// # Errors
    ///
    /// Returns an error only for malformed or semantically invalid
    /// queries.
    pub fn query(&self, s2sql: &str) -> Result<QueryOutcome, S2sError> {
        self.query_with_options(s2sql, &QueryOptions::default())
    }

    /// [`S2s::query`] with per-query overload options: a deadline
    /// budget (propagated to every source exchange's retry policy) and
    /// tenant attribution for admission fairness.
    ///
    /// The query runs the paper's pipeline (Fig. 1), one function per
    /// stage: parse → result cache → admission gate → plan (plan cache)
    /// → map + pushdown (steps 1–2 of Fig. 5) → dependencies + view
    /// partition → extract (steps 3–4) → generate (§2.6) → publish
    /// (views, plan cache, result cache). Fresh, replayed and shed
    /// answers leave through one exit, which emits the query's metrics
    /// and builds its root span. Only a traced query reads a stage's
    /// wall clock.
    ///
    /// A query refused by admission control still returns `Ok`: the
    /// outcome is an empty, honestly-labelled degraded answer with
    /// [`QueryStats::shed`] set — shedding is an overload signal, not
    /// a query error.
    ///
    /// # Errors
    ///
    /// Returns an error only for malformed or semantically invalid
    /// queries.
    pub fn query_with_options(
        &self,
        s2sql: &str,
        opts: &QueryOptions,
    ) -> Result<QueryOutcome, S2sError> {
        let started = Instant::now();
        let mut spans = Vec::new();
        let (parsed, key) = self.parse(s2sql, &mut spans)?;
        let mut result_cache = CacheStats::default();
        if let Some(hit) = self.cached(&key, &mut result_cache) {
            return Ok(self.finish(s2sql, Exit::Replayed(hit), result_cache, started));
        }
        // The permit is held until the outcome is built.
        let _permit = match self.admit(opts) {
            Ok(permit) => permit,
            Err(why) => return Ok(self.finish(s2sql, Exit::Shed(why), result_cache, started)),
        };
        let (plan, plan_cache) = self.plan(&parsed, &key, &mut spans)?;
        let registry = self.registry.read();
        let mut mapped = self.map(&plan, &mut spans)?;
        let (deps, served) = self.partition(&registry, &mut mapped, &mut spans);
        let bind = self.pushdown(&plan, &mapped, &mut spans);
        let mut report = self.extract(&registry, mapped, bind.as_ref(), opts.deadline);
        drop(registry);
        let extracted = report.results.len();
        report.results.extend(served);
        let instances = instance::generate(&self.ontology, &plan, &report);
        let totals = ledger::total(&report.sources);
        let mut fresh = Fresh { plan, plan_cache, spans, report, totals, instances };
        self.publish(key, deps, extracted, &mut fresh, &mut result_cache);
        Ok(self.finish(s2sql, Exit::Fresh(&mut fresh), result_cache, started))
    }

    /// Parse: a malformed query is an error before any cache or the
    /// gate. Both caches key on the parse's canonical rendering, so two
    /// texts share an entry exactly when they parsed the same.
    fn parse(&self, s2sql: &str, spans: &mut Vec<Span>) -> Result<(S2sqlQuery, String), S2sError> {
        let stage = Stage::start(self.tracing);
        let parsed = query::parse(s2sql).inspect_err(|_| {
            // A rejected text never reaches `finish`.
            if s2s_obs::enabled() {
                s2s_obs::global().counter(names::QUERY_PARSE_ERRORS_TOTAL).inc();
            }
        })?;
        stage.end(spans, SpanKind::Parse, "s2sql");
        let key = parsed.to_string();
        Ok((parsed, key))
    }

    /// Result cache: a whole answer whose sources are still at the
    /// versions it read (checked under the registry read lock). Served
    /// before the gate: a replay touches no source.
    fn cached(&self, key: &str, lookups: &mut CacheStats) -> Option<CachedResult> {
        let hit = self.results.as_ref()?.get(key, &self.registry.read());
        lookups.lookup(hit.is_some());
        hit
    }

    /// Admission gate: fresh work is shed at arrival, before any plan or
    /// wire work, not after queueing past the caller's budget.
    fn admit(&self, opts: &QueryOptions) -> Result<Option<AdmissionGuard<'_>>, ShedReason> {
        self.admission.as_ref().map(|ctl| ctl.admit(&opts.tenant, opts.deadline)).transpose()
    }

    /// Plan: the plan cache memoizes validate + plan; [`Self::publish`]
    /// inserts a fresh plan.
    fn plan(
        &self,
        parsed: &S2sqlQuery,
        key: &str,
        spans: &mut Vec<Span>,
    ) -> Result<(Arc<QueryPlan>, CacheStats), S2sError> {
        let stage = Stage::start(self.tracing);
        let (cached, mut lookups) = (self.plans.get(key), CacheStats::default());
        lookups.lookup(cached.is_some());
        let plan = cached.map_or_else(|| query::plan(parsed, &self.ontology).map(Arc::new), Ok)?;
        if let Some(span) = stage.end(spans, SpanKind::Plan, "attributes") {
            span.attr("count", plan.attributes.len().to_string());
            if lookups.hits > 0 {
                span.outcome = SpanOutcome::CacheHit;
                span.attr("cache", "hit");
            }
        }
        Ok((plan, lookups))
    }

    /// Map: the plan's mapped attributes become extraction schemas with
    /// one ledger row per source (steps 1–2 of Fig. 5). With a condition
    /// or a projection, sources that cannot contribute are pruned and
    /// projected-out schemas drop ([`crate::planner::prune`]) before the
    /// views see the schemas.
    fn map(&self, plan: &QueryPlan, spans: &mut Vec<Span>) -> Result<Mapped, S2sError> {
        let stage = Stage::start(self.tracing);
        let mappings = self.mappings.read();
        let paths: Vec<AttributePath> =
            plan.attributes.iter().filter(|p| mappings.contains(p)).cloned().collect();
        let schemas = ExtractorManager::obtain_schemas(&mappings, &paths)?;
        drop(mappings);
        let mut sources = ledger::rows(&schemas);
        let mapped = schemas.len();
        let (condition, projection) = (plan.condition.as_ref(), plan.projection.as_deref());
        let schemas = match condition.is_some() || projection.is_some() {
            true => crate::planner::prune(schemas, condition, projection, &mut sources),
            false => schemas,
        };
        if let Some(span) = stage.end(spans, SpanKind::Map, "mappings") {
            span.attr("mapped", mapped.to_string());
        }
        Ok(Mapped { schemas, sources })
    }

    /// Dependencies + view partition: the `(source, version)` pairs the
    /// query reads — the registry lock is held through extraction, so
    /// they are the versions of all it touches; recorded only for their
    /// readers, the views and the result cache — then the slices the
    /// views serve (DESIGN.md §4k), the rest left in `mapped`. The `map`
    /// span covers this stage too.
    fn partition(
        &self,
        registry: &SourceRegistry,
        mapped: &mut Mapped,
        spans: &mut [Span],
    ) -> (DependencySet, Vec<AttributeResult>) {
        let stage = Stage::start(self.tracing);
        let mut deps = DependencySet::new();
        if self.views.is_some() || self.results.is_some() {
            for s in &mapped.schemas {
                let source = s.mapping.source().as_str();
                if let Some(v) = registry.version_of(source) {
                    deps.record(source, v);
                }
            }
        }
        let mut served = Vec::new();
        if let Some(views) = &self.views {
            let (schemas, now) =
                (std::mem::take(&mut mapped.schemas), self.resilience.virtual_now());
            (mapped.schemas, served) =
                views.partition(registry, schemas, &deps, &mut mapped.sources, now);
        }
        if let Some(map) = spans.iter_mut().find(|s| s.kind == SpanKind::Map) {
            map.wall_us += stage.wall_us();
        }
        (deps, served)
    }

    /// Pushdown, after the view partition: the condition, which
    /// extraction folds against each wire-bound source's rules and binds
    /// to its record statement ([`crate::planner::Bind`]). Its span's
    /// figures are the ledger's, rendered at the exit.
    fn pushdown<'p>(
        &self,
        plan: &'p QueryPlan,
        mapped: &Mapped,
        spans: &mut Vec<Span>,
    ) -> Option<Bind<'p>> {
        if plan.condition.is_none() && plan.projection.is_none() {
            return None;
        }
        let stage = Stage::start(self.tracing);
        let condition = plan.condition.as_ref().filter(|_| !mapped.schemas.is_empty());
        let bind = condition.map(|condition| Bind { condition, views: self.views.is_some() });
        stage.end(spans, SpanKind::Pushdown, "planner");
        bind
    }

    /// Extract, steps 3–4 of Fig. 5: one coalesced wire exchange per
    /// source, each through its bound filter, under the resilience
    /// policy and the query's deadline.
    fn extract(
        &self,
        registry: &SourceRegistry,
        mapped: Mapped,
        bind: Option<&Bind<'_>>,
        deadline: Option<SimDuration>,
    ) -> ExtractionReport {
        let (strategy, lanes, resilience) = (self.strategy, &self.lanes, &*self.resilience);
        let traced = self.tracing;
        let env = ExtractEnv { strategy, lanes, resilience, deadline, traced, bind };
        ExtractorManager::extract(registry, mapped.schemas, mapped.sources, &env)
    }

    /// Publish: the extracted slices (the report's first `extracted`
    /// results) go to the views, and a query that reached the wire
    /// recalibrates admission's service estimate. A query that blew its
    /// deadline publishes nothing more, so overload casualties evict no
    /// entry healthy queries rely on; otherwise a fresh plan goes to the
    /// plan cache and a complete answer to the result cache — a degraded
    /// one is never replayed after its sources recover. Either insert's
    /// eviction is tallied on the query's lookups.
    fn publish(
        &self,
        key: String,
        deps: DependencySet,
        extracted: usize,
        fresh: &mut Fresh,
        result_cache: &mut CacheStats,
    ) {
        let (sum, report) = (&fresh.totals.sum, &fresh.report);
        if let Some(views) = &self.views {
            let now = self.resilience.virtual_now();
            views.store(&report.results[..extracted], &deps, now);
        }
        if let Some(ctl) = self.admission.as_ref().filter(|_| sum.attempts > 0) {
            ctl.record_completion(report.simulated);
        }
        if sum.deadline_hits > 0 {
            return;
        }
        if fresh.plan_cache.misses > 0 {
            let evicted = self.plans.insert(key.clone(), Arc::clone(&fresh.plan));
            fresh.plan_cache.evictions = u64::from(evicted);
        }
        let complete = sum.failed_tasks == 0 && fresh.instances.completeness >= 1.0;
        if let Some(results) = self.results.as_ref().filter(|_| complete) {
            let (plan, instances) = (Arc::clone(&fresh.plan), Arc::new(fresh.instances.clone()));
            let evicted =
                results.insert(key, CachedResult { plan, instances, tasks: sum.tasks }, deps);
            result_cache.evictions = u64::from(evicted);
        }
    }

    /// The one exit of every query, fresh, replayed or shed: the one
    /// place its stats are built, its figures reach the metrics
    /// registry ([`meter`]), its root span is built and its outcome
    /// assembled.
    fn finish(
        &self,
        s2sql: &str,
        mut exit: Exit<'_>,
        result_cache: CacheStats,
        started: Instant,
    ) -> QueryOutcome {
        let base = QueryStats { result_cache, ..QueryStats::default() };
        let stats = match &exit {
            Exit::Fresh(f) => {
                let sum = &f.totals.sum;
                QueryStats {
                    tasks: sum.tasks,
                    failed_tasks: sum.failed_tasks,
                    round_trips: sum.attempts,
                    plan_cache: f.plan_cache,
                    completeness: f.instances.completeness,
                    simulated: f.report.simulated,
                    simulated_serial: f.report.simulated_serial,
                    wire_bytes: sum.wire_bytes,
                    wire_response_bytes: sum.wire_response_bytes,
                    view_hits: sum.view_hits,
                    view_refreshes: sum.view_refreshes,
                    view_full_refreshes: sum.view_full_refreshes,
                    feed_polls: sum.feed_polls,
                    view_staleness: sum.view_staleness,
                    ..base
                }
            }
            Exit::Replayed(hit) => QueryStats { tasks: hit.tasks, completeness: 1.0, ..base },
            Exit::Shed(_) => QueryStats { shed: true, completeness: 0.0, ..base },
        };
        let metered = s2s_obs::enabled();
        let wall_us =
            if metered || self.tracing { started.elapsed().as_micros() as u64 } else { 0 };
        if metered {
            meter(&exit, &stats, wall_us);
        }
        let trace = self.tracing.then(|| Trace::new(root_span(s2sql, &mut exit, &stats, wall_us)));
        let (plan, instances, sources) = match exit {
            Exit::Fresh(f) => {
                let (instances, sources) = (&mut f.instances, &mut f.report.sources);
                (f.plan.as_ref().clone(), std::mem::take(instances), std::mem::take(sources))
            }
            Exit::Replayed(hit) => {
                (hit.plan.as_ref().clone(), (*hit.instances).clone(), Vec::new())
            }
            Exit::Shed(_) => (shed_plan(), InstanceSet::default(), Vec::new()),
        };
        QueryOutcome { plan, instances, stats, sources, trace }
    }
}

/// One pipeline stage's wall clock, read only when the query is traced.
struct Stage(Option<Instant>);

impl Stage {
    fn start(traced: bool) -> Stage {
        Stage(traced.then(Instant::now))
    }

    /// Microseconds since the start; `0` untraced.
    fn wall_us(self) -> u64 {
        self.0.map_or(0, |t| t.elapsed().as_micros() as u64)
    }

    /// Ends the stage: traced, its span goes to `spans` and is returned
    /// for its attributes.
    fn end<'s>(self, spans: &'s mut Vec<Span>, kind: SpanKind, name: &str) -> Option<&'s mut Span> {
        let started = self.0?;
        let mut span = Span::new(kind, name);
        span.wall_us = started.elapsed().as_micros() as u64;
        spans.push(span);
        spans.last_mut()
    }
}

/// The map stage's output: the schemas left to answer and the query's
/// ledger.
struct Mapped {
    schemas: Vec<ExtractionSchema>,
    sources: Vec<SourceLedger>,
}

/// A query answered now, on its way out.
struct Fresh {
    plan: Arc<QueryPlan>,
    /// The one plan-cache lookup, and whether publishing evicted a plan.
    plan_cache: CacheStats,
    /// The stage spans, in stage order (empty untraced).
    spans: Vec<Span>,
    report: ExtractionReport,
    /// The report's ledger, folded once.
    totals: Totals,
    instances: InstanceSet,
}

/// How a query leaves the engine ([`S2s::finish`]): answered now,
/// replayed from the result cache (no source contact, zero simulated
/// time), or shed by admission control (an empty, honestly-labelled
/// degraded answer).
enum Exit<'q> {
    Fresh(&'q mut Fresh),
    Replayed(CachedResult),
    Shed(ShedReason),
}

/// Folds a query leaving through `exit` into the metrics registry —
/// the registry's one per-query feed. Every exit counts the query and
/// observes its completeness and times; a fresh one adds its ledger
/// totals, one exchange sample per row that reached the wire, and its
/// answer's size.
#[warn(clippy::too_many_lines)]
fn meter(exit: &Exit<'_>, stats: &QueryStats, wall_us: u64) {
    let m = s2s_obs::global();
    m.counter(names::QUERIES_TOTAL).inc();
    if stats.completeness < 1.0 {
        m.counter(names::QUERIES_DEGRADED_TOTAL).inc();
    }
    m.gauge(names::QUERY_COMPLETENESS).set(stats.completeness);
    m.histogram(names::QUERY_SIM_US).observe(stats.simulated.as_micros());
    m.histogram(names::QUERY_WALL_US).observe(wall_us);
    let fresh = match exit {
        Exit::Fresh(fresh) => fresh,
        Exit::Replayed(_) => return,
        Exit::Shed(_) => {
            m.counter(names::OVERLOAD_SHED_TOTAL).inc();
            return;
        }
    };
    let (totals, sum) = (&fresh.totals, &fresh.totals.sum);
    for (name, figure) in [
        (names::PUSHDOWN_PREDICATES_TOTAL, totals.pushed),
        (names::PUSHDOWN_PRUNED_SOURCES_TOTAL, totals.pruned),
        (names::EXTRACT_TASKS_TOTAL, sum.tasks as u64),
        (names::EXTRACT_FAILED_TASKS_TOTAL, sum.failed_tasks as u64),
        (names::NET_CALLS_TOTAL, sum.attempts),
        (names::NET_BYTES_TOTAL, sum.wire_bytes),
        (names::RETRY_RETRIES_TOTAL, sum.retries),
        (names::OVERLOAD_DEADLINE_EXCEEDED_TOTAL, sum.deadline_hits),
        (names::HEDGE_LAUNCHED_TOTAL, sum.hedges),
        (names::HEDGE_WINS_TOTAL, sum.hedge_wins),
        (names::VIEW_HITS_TOTAL, sum.view_hits),
        (names::VIEW_REFRESHES_TOTAL, sum.view_refreshes),
        (names::VIEW_FULL_REFRESHES_TOTAL, sum.view_full_refreshes),
        (names::FEED_POLLS_TOTAL, sum.feed_polls),
        // The record list's count: metering builds no view.
        (names::INSTANCES_GENERATED_TOTAL, fresh.instances.individuals.len() as u64),
        (names::INSTANCE_TRIPLES_TOTAL, fresh.instances.graph.len() as u64),
    ] {
        m.counter(name).add(figure);
    }
    if sum.view_hits > 0 {
        m.histogram(names::VIEW_STALENESS_US).observe(sum.view_staleness.as_micros());
    }
    let exchanges = m.histogram(names::SOURCE_EXCHANGE_SIM_US);
    for row in fresh.report.sources.iter().filter(|r| r.attempts > 0) {
        exchanges.observe(row.wire_time.as_micros());
    }
}

/// The root span of a query leaving through `exit`: the stats rendered
/// as attributes, and a fresh query's stage and batch spans beneath.
fn root_span(s2sql: &str, exit: &mut Exit<'_>, stats: &QueryStats, wall_us: u64) -> Span {
    let mut root = Span::new(SpanKind::Query, s2sql);
    (root.sim_us, root.wall_us) = (stats.simulated.as_micros(), wall_us);
    match exit {
        Exit::Replayed(_) => {
            root.outcome = SpanOutcome::CacheHit;
            root.attr("cache", "result-hit");
        }
        Exit::Shed(why) => {
            root.outcome = SpanOutcome::Shed;
            root.attr("shed", why.to_string());
        }
        Exit::Fresh(_) if stats.completeness < 1.0 => root.outcome = SpanOutcome::Degraded,
        Exit::Fresh(_) => {}
    }
    // `f64`'s `Display` round-trips exactly, so this attribute parses
    // back to `stats.completeness` bit-for-bit.
    root.attr("completeness", format!("{}", stats.completeness));
    if !stats.shed {
        root.attr("tasks", stats.tasks.to_string());
    }
    let Exit::Fresh(fresh) = exit else { return root };
    root.attr("failed_tasks", stats.failed_tasks.to_string());
    root.attr("round_trips", stats.round_trips.to_string());
    let sum = &fresh.totals.sum;
    if sum.deadline_hits > 0 {
        root.attr("deadline_hits", sum.deadline_hits.to_string());
    }
    if sum.hedges > 0 {
        root.attr("hedges", sum.hedges.to_string());
        root.attr("hedge_wins", sum.hedge_wins.to_string());
    }
    if stats.view_hits + stats.view_refreshes + stats.view_full_refreshes > 0 {
        root.attr("view_hits", stats.view_hits.to_string());
        root.attr("view_refreshes", stats.view_refreshes.to_string());
        root.attr("view_full_refreshes", stats.view_full_refreshes.to_string());
    }
    root.children = std::mem::take(&mut fresh.spans);
    if let Some(pushdown) = root.children.iter_mut().find(|s| s.kind == SpanKind::Pushdown) {
        let totals = &fresh.totals;
        pushdown.attr("pushed_predicates", totals.pushed.to_string());
        pushdown.attr("pruned_sources", totals.pruned.to_string());
        if totals.pruned > 0 {
            let rows = fresh.report.sources.iter().filter(|r| r.pruned);
            pushdown.attr("pruned", rows.map(|r| &*r.source).collect::<Vec<_>>().join(","));
        }
    }
    root.children.append(&mut fresh.report.spans);
    root
}

/// The plan of a shed query's outcome: shedding comes before planning,
/// so its class is a placeholder.
fn shed_plan() -> QueryPlan {
    let class = s2s_rdf::Iri::new("urn:s2s:shed").expect("sentinel IRI is valid");
    QueryPlan {
        class,
        output_classes: Vec::new(),
        attributes: Vec::new(),
        projection: None,
        condition: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s2s_minidb::Database;
    use s2s_rdf::vocab::xsd;
    use s2s_webdoc::WebStore;

    fn ontology() -> Ontology {
        Ontology::builder("http://example.org/schema#")
            .class("Product", None)
            .unwrap()
            .class("Watch", Some("Product"))
            .unwrap()
            .class("Provider", None)
            .unwrap()
            .datatype_property("brand", "Product", xsd::STRING)
            .unwrap()
            .datatype_property("price", "Product", xsd::DECIMAL)
            .unwrap()
            .datatype_property("case", "Watch", xsd::STRING)
            .unwrap()
            .object_property("provider", "Product", "Provider")
            .unwrap()
            .build()
            .unwrap()
    }

    /// A full four-source-type deployment mirroring the paper's
    /// scenario.
    fn deploy() -> S2s {
        let mut db = Database::new("catalog");
        db.execute(
            "CREATE TABLE watches (id INTEGER PRIMARY KEY, brand TEXT, price REAL, case_m TEXT)",
        )
        .unwrap();
        db.execute(
            "INSERT INTO watches VALUES \
             (1,'Seiko',129.99,'stainless-steel'), (2,'Casio',59.5,'resin')",
        )
        .unwrap();

        let xml = s2s_xml::parse(
            "<catalog><watch><brand>Orient</brand><price>189.0</price><case>stainless-steel</case></watch></catalog>",
        )
        .unwrap();

        let mut web = WebStore::new();
        web.register_html(
            "http://shop/81",
            "<p><b>Tissot Classic Dream</b></p><span class=\"price\">249.00</span>",
        );
        web.register_text("http://files/fossil.txt", "brand: Fossil\nprice: 99.0\ncase: resin\n");
        let web = Arc::new(web);

        let mut s2s = S2s::new(ontology());
        s2s.register_source("DB_ID_45", Connection::Database { db: Arc::new(db) }).unwrap();
        s2s.register_source("XML_7", Connection::Xml { document: Arc::new(xml) }).unwrap();
        s2s.register_source(
            "wpage_81",
            Connection::Web { store: web.clone(), url: "http://shop/81".into() },
        )
        .unwrap();
        s2s.register_source(
            "txt_9",
            Connection::Text { store: web, url: "http://files/fossil.txt".into() },
        )
        .unwrap();

        // DB mappings (multi-record).
        s2s.register_attribute(
            "thing.product.watch.brand",
            ExtractionRule::Sql {
                query: "SELECT brand FROM watches ORDER BY id".into(),
                column: "brand".into(),
            },
            "DB_ID_45",
            RecordScenario::MultiRecord,
        )
        .unwrap();
        s2s.register_attribute(
            "thing.product.watch.price",
            ExtractionRule::Sql {
                query: "SELECT price FROM watches ORDER BY id".into(),
                column: "price".into(),
            },
            "DB_ID_45",
            RecordScenario::MultiRecord,
        )
        .unwrap();
        s2s.register_attribute(
            "thing.product.watch.case",
            ExtractionRule::Sql {
                query: "SELECT case_m FROM watches ORDER BY id".into(),
                column: "case_m".into(),
            },
            "DB_ID_45",
            RecordScenario::MultiRecord,
        )
        .unwrap();

        // XML mappings.
        s2s.register_attribute(
            "thing.product.watch.brand",
            ExtractionRule::XPath { path: "//watch/brand/text()".into() },
            "XML_7",
            RecordScenario::MultiRecord,
        )
        .unwrap();
        s2s.register_attribute(
            "thing.product.watch.price",
            ExtractionRule::XPath { path: "//watch/price/text()".into() },
            "XML_7",
            RecordScenario::MultiRecord,
        )
        .unwrap();
        s2s.register_attribute(
            "thing.product.watch.case",
            ExtractionRule::XPath { path: "//watch/case/text()".into() },
            "XML_7",
            RecordScenario::MultiRecord,
        )
        .unwrap();

        // Web page mapping (single record, WebL).
        s2s.register_attribute(
            "thing.product.watch.brand",
            ExtractionRule::Webl {
                program: r#"
                    var m = Str_Search(Text(PAGE), "<p><b>" + `[0-9a-zA-Z']+`);
                    var parts = Str_Split(m[0][0], "<>");
                    var brand = parts[2];
                "#
                .into(),
            },
            "wpage_81",
            RecordScenario::SingleRecord,
        )
        .unwrap();
        s2s.register_attribute(
            "thing.product.watch.price",
            ExtractionRule::Webl {
                program: r#"
                    var m = Str_Search(Text(PAGE), `class="price">(\d+\.\d+)`);
                    var price = m[0][1];
                "#
                .into(),
            },
            "wpage_81",
            RecordScenario::SingleRecord,
        )
        .unwrap();

        // Text file mappings (single record, regex).
        s2s.register_attribute(
            "thing.product.watch.brand",
            ExtractionRule::TextRegex { pattern: r"brand: (\w+)".into(), group: 1 },
            "txt_9",
            RecordScenario::SingleRecord,
        )
        .unwrap();
        s2s.register_attribute(
            "thing.product.watch.case",
            ExtractionRule::TextRegex { pattern: r"case: (\w+)".into(), group: 1 },
            "txt_9",
            RecordScenario::SingleRecord,
        )
        .unwrap();

        s2s
    }

    #[test]
    fn end_to_end_heterogeneous_integration() {
        // The headline claim: one query, four source types, unified
        // ontology instances.
        let s2s = deploy();
        let outcome = s2s.query("SELECT watch").unwrap();
        assert!(outcome.errors().is_empty(), "{:?}", outcome.errors());
        // 2 (db) + 1 (xml) + 1 (web) + 1 (text) = 5 watches.
        assert_eq!(outcome.individuals().len(), 5);
        let brands: Vec<_> = outcome
            .individuals()
            .iter()
            .filter_map(|i| i.value(&s2s.ontology().property_iri("brand").unwrap()))
            .collect();
        assert!(brands.contains(&"Seiko"));
        assert!(brands.contains(&"Orient"));
        assert!(brands.contains(&"Tissot"));
        assert!(brands.contains(&"Fossil"));
    }

    #[test]
    fn paper_query_filters_across_sources() {
        let s2s = deploy();
        let outcome = s2s.query("SELECT watch WHERE case='stainless-steel'").unwrap();
        // Seiko (db) and Orient (xml) have stainless-steel cases.
        assert_eq!(outcome.individuals().len(), 2);
    }

    #[test]
    fn numeric_condition() {
        let s2s = deploy();
        let outcome = s2s.query("SELECT watch WHERE price<100").unwrap();
        // Casio 59.5 (db); Fossil has no mapped price → excluded.
        assert_eq!(outcome.individuals().len(), 1);
    }

    #[test]
    fn like_condition() {
        let s2s = deploy();
        let outcome = s2s.query("SELECT watch WHERE brand LIKE 'S%'").unwrap();
        assert_eq!(outcome.individuals().len(), 1);
    }

    #[test]
    fn parallel_strategy_same_answers() {
        let serial = deploy();
        let parallel = deploy().with_strategy(Strategy::Parallel { workers: 4 });
        let a = serial.query("SELECT watch").unwrap();
        let b = parallel.query("SELECT watch").unwrap();
        let key = |o: &QueryOutcome| {
            let mut v: Vec<String> =
                o.individuals().iter().map(|i| format!("{:?}", i.values)).collect();
            v.sort();
            v
        };
        assert_eq!(key(&a), key(&b));
    }

    #[test]
    fn reactor_strategy_same_answers() {
        let serial = deploy();
        let reactor = deploy().with_strategy(Strategy::Reactor);
        let a = serial.query("SELECT watch").unwrap();
        let b = reactor.query("SELECT watch").unwrap();
        let key = |o: &QueryOutcome| {
            let mut v: Vec<String> =
                o.individuals().iter().map(|i| format!("{:?}", i.values)).collect();
            v.sort();
            v
        };
        assert_eq!(key(&a), key(&b));
        assert!(
            b.stats.simulated <= b.stats.simulated_serial,
            "reactor overlap cannot exceed the serial cost"
        );
    }

    /// Three remote flaky sources behind WAN cost models, for the
    /// four-wide-vs-reactor determinism regression.
    fn deploy_remote_trio(policy: ResiliencePolicy) -> S2s {
        let mut s2s = S2s::new(ontology()).with_resilience(policy);
        for (i, brand) in ["Seiko", "Casio", "Orient"].iter().enumerate() {
            let mut db = Database::new("d");
            db.execute("CREATE TABLE w (id INTEGER PRIMARY KEY, brand TEXT, price REAL)").unwrap();
            db.execute(&format!("INSERT INTO w VALUES (1, '{brand}', {})", 50 + 10 * i)).unwrap();
            let id = format!("DB{i}");
            s2s.register_remote_source(
                &id,
                Connection::Database { db: Arc::new(db) },
                CostModel::wan(),
                FailureModel::flaky(0.3),
            )
            .unwrap();
            for (attr, col) in [("brand", "brand"), ("price", "price")] {
                s2s.register_attribute(
                    &format!("thing.product.watch.{attr}"),
                    ExtractionRule::Sql {
                        query: format!("SELECT {col} FROM w ORDER BY id"),
                        column: col.into(),
                    },
                    &id,
                    RecordScenario::MultiRecord,
                )
                .unwrap();
            }
        }
        s2s
    }

    /// Recursive trace-tree equality, masking only `wall_us` (the one
    /// nondeterministic span field).
    fn assert_spans_equal_modulo_wall(a: &Span, b: &Span, path: &str) {
        assert_eq!(a.kind, b.kind, "span kind diverged at {path}");
        assert_eq!(a.name, b.name, "span name diverged at {path}");
        assert_eq!(a.outcome, b.outcome, "span outcome diverged at {path}");
        assert_eq!(a.sim_us, b.sim_us, "span sim_us diverged at {path}");
        assert_eq!(a.attrs, b.attrs, "span attrs diverged at {path}");
        assert_eq!(a.children.len(), b.children.len(), "child count diverged at {path}");
        for (i, (ca, cb)) in a.children.iter().zip(&b.children).enumerate() {
            assert_spans_equal_modulo_wall(ca, cb, &format!("{path}/{}[{i}]", ca.name));
        }
    }

    #[test]
    fn reactor_trace_tree_is_identical_to_four_wide_modulo_wall() {
        // Same seed + same scenario four at a time vs all in flight:
        // answers, stats, and the full trace tree (modulo wall_us) must
        // be bit-identical. Three sources keep the 4-lane makespan at
        // the per-task max — the same accounting `Reactor` reports — so
        // even the root's sim time agrees.
        let policy = ResiliencePolicy::default().with_retry(
            s2s_netsim::RetryPolicy::attempts(3).with_backoff(
                SimDuration::from_millis(5),
                2,
                SimDuration::from_millis(50),
            ),
        );
        let four_wide = deploy_remote_trio(policy)
            .with_strategy(Strategy::Parallel { workers: 4 })
            .with_tracing();
        let reactor = deploy_remote_trio(policy).with_strategy(Strategy::Reactor).with_tracing();
        for query in ["SELECT watch", "SELECT watch WHERE price < 65"] {
            let a = four_wide.query(query).unwrap();
            let b = reactor.query(query).unwrap();
            assert_eq!(a.stats, b.stats, "stats diverged on {query}");
            let ta = a.trace.expect("four-wide trace");
            let tb = b.trace.expect("reactor trace");
            assert_spans_equal_modulo_wall(&ta.root, &tb.root, query);
        }
    }

    #[test]
    fn output_graph_is_well_typed() {
        let s2s = deploy();
        let outcome = s2s.query("SELECT watch WHERE brand='Seiko'").unwrap();
        let watch = s2s.ontology().class_iri("Watch").unwrap();
        let product = s2s.ontology().class_iri("Product").unwrap();
        assert_eq!(outcome.instances.graph.instances_of(&watch).count(), 1);
        // Supertype materialized.
        assert_eq!(outcome.instances.graph.instances_of(&product).count(), 1);
    }

    #[test]
    fn unmapped_condition_attribute_gives_empty_result() {
        let s2s = deploy();
        // `provider` is a valid attribute but has no mapping.
        let outcome = s2s.query("SELECT watch WHERE provider='TimeHouse'").unwrap();
        assert!(outcome.individuals().is_empty());
    }

    #[test]
    fn invalid_queries_error() {
        let s2s = deploy();
        assert!(matches!(s2s.query("SELECT nope"), Err(S2sError::QuerySemantics { .. })));
        assert!(matches!(s2s.query("garbage"), Err(S2sError::QuerySyntax { .. })));
    }

    #[test]
    fn unknown_source_rejected_at_registration() {
        let mut s2s = S2s::new(ontology());
        let err = s2s.register_attribute(
            "thing.product.brand",
            ExtractionRule::TextRegex { pattern: "x".into(), group: 0 },
            "MISSING",
            RecordScenario::SingleRecord,
        );
        assert!(matches!(err, Err(S2sError::UnknownSource { .. })));
    }

    #[test]
    fn stats_populated() {
        let s2s = deploy();
        let outcome = s2s.query("SELECT watch").unwrap();
        assert_eq!(outcome.stats.tasks, 10);
        assert_eq!(outcome.stats.failed_tasks, 0);
        assert_eq!(outcome.stats.simulated, outcome.stats.simulated_serial); // serial strategy
    }

    #[test]
    fn the_ledger_has_one_row_per_source_in_id_order() {
        let s2s = deploy();
        let outcome = s2s.query("SELECT watch").unwrap();
        let ids: Vec<&str> = outcome.sources.iter().map(|r| r.source.as_str()).collect();
        assert_eq!(ids, ["DB_ID_45", "XML_7", "txt_9", "wpage_81"]);
        // Local sources cost zero simulated time.
        assert!(outcome.sources.iter().all(|r| r.wire_time == SimDuration::ZERO));
        assert_eq!(outcome.source("XML_7").map(|r| r.tasks), Some(3));
        assert!(outcome.source("nowhere").is_none());
    }

    #[test]
    fn views_serve_different_queries_over_the_same_mappings() {
        // Slices are keyed by (source, attribute), not by S2SQL text: a
        // different query over the same mappings is fully view-served,
        // at zero simulated time.
        let s2s = deploy_views();
        let first = s2s.query("SELECT watch").unwrap();
        assert_eq!(first.stats.view_hits, 0);
        let filtered = s2s.query("SELECT watch WHERE brand='Seiko'").unwrap();
        assert_eq!(filtered.stats.view_hits as usize, filtered.stats.tasks);
        assert_eq!(filtered.stats.simulated, SimDuration::ZERO);
        assert_eq!(filtered.individuals().len(), 1);
    }

    #[test]
    fn renders_owl_output() {
        let s2s = deploy();
        let outcome = s2s.query("SELECT watch WHERE brand='Seiko'").unwrap();
        let owl = outcome.render(s2s.ontology(), OutputFormat::OwlRdfXml);
        assert!(owl.contains("rdf:RDF"));
        assert!(owl.contains("Seiko"));
    }

    /// A remote deployment with one replicated source (primary +
    /// replica behind the same cost model) under `policy`.
    fn deploy_replicated(
        primary: FailureModel,
        replica: FailureModel,
        policy: ResiliencePolicy,
    ) -> S2s {
        let mut db = Database::new("d");
        db.execute("CREATE TABLE w (id INTEGER PRIMARY KEY, brand TEXT, price REAL)").unwrap();
        for i in 0..6 {
            db.execute(&format!("INSERT INTO w VALUES ({}, 'B{i}', {})", i + 1, 10 + i)).unwrap();
        }
        let mut s2s = S2s::new(ontology()).with_resilience(policy);
        s2s.register_remote_source(
            "DB",
            Connection::Database { db: Arc::new(db) },
            CostModel::wan(),
            primary,
        )
        .unwrap();
        s2s.add_source_replica("DB", replica).unwrap();
        for (attr, col) in [("brand", "brand"), ("price", "price")] {
            s2s.register_attribute(
                &format!("thing.product.watch.{attr}"),
                ExtractionRule::Sql {
                    query: format!("SELECT {col} FROM w ORDER BY id"),
                    column: col.into(),
                },
                "DB",
                RecordScenario::MultiRecord,
            )
            .unwrap();
        }
        s2s
    }

    #[test]
    fn shed_query_returns_honest_empty_answer() {
        let s2s =
            deploy().with_admission(s2s_netsim::AdmissionConfig::with_permits(1)).with_tracing();
        // Occupy the only permit so the next arrival sees a backlog its
        // 1 ms budget cannot absorb.
        let slot = s2s.admission().unwrap().admit("hog", None).unwrap();
        let opts =
            QueryOptions::default().with_deadline(SimDuration::from_millis(1)).with_tenant("meek");
        let out = s2s.query_with_options("SELECT watch", &opts).unwrap();
        drop(slot);

        assert!(out.stats.shed);
        assert_eq!(out.stats.completeness, 0.0);
        assert!(out.individuals().is_empty());
        assert_eq!(out.stats.round_trips, 0, "a shed query puts nothing on the wire");
        assert_eq!(out.stats.plan_cache, CacheStats::default(), "shed before any plan work");
        let root = out.trace.unwrap().root;
        assert_eq!(root.outcome, SpanOutcome::Shed);
        assert!(root.get_attr("shed").is_some());
        assert_eq!(s2s.admission_stats().unwrap().shed, 1);
        assert_eq!(s2s.plan_cache_len(), 0, "shed queries publish nothing");

        // With the permit free again the same engine answers normally.
        let ok = s2s.query("SELECT watch").unwrap();
        assert!(!ok.stats.shed);
        assert!(!ok.individuals().is_empty());
    }

    #[test]
    fn deadline_exhaustion_returns_partial_answer_with_attempts_counted() {
        let policy = ResiliencePolicy::default().with_retry(
            s2s_netsim::RetryPolicy::attempts(10)
                .with_backoff(SimDuration::from_millis(50), 2, SimDuration::from_millis(400))
                .with_jitter(0.0),
        );
        // Primary and replica both hard down: without a budget this
        // query would grind through the whole retry/failover schedule.
        let s2s =
            deploy_replicated(FailureModel::unreachable(), FailureModel::unreachable(), policy);
        let opts = QueryOptions::default().with_deadline(SimDuration::from_millis(60));
        let out = s2s.query_with_options("SELECT watch", &opts).unwrap();

        assert!(!out.stats.shed);
        assert!(out.deadline_hits() >= 1);
        assert!(out.stats.failed_tasks > 0);
        assert!(out.stats.completeness < 1.0, "the answer is honestly degraded");
        assert!(out.stats.round_trips >= 1, "attempts made before expiry still count");
        assert!(
            out.errors().iter().any(|e| matches!(e.error, S2sError::DeadlineExceeded { .. })),
            "failures are labelled as deadline casualties"
        );
        assert_eq!(out.source("DB").unwrap().deadline_hits, out.deadline_hits());
        // No failover happened after expiry: the budget is gone.
        assert_eq!(out.failovers(), 0);
    }

    #[test]
    fn hedging_races_stragglers_and_wins_stay_bounded_by_launches() {
        let policy = ResiliencePolicy::default()
            .with_retry(
                s2s_netsim::RetryPolicy::attempts(4)
                    .with_backoff(SimDuration::from_millis(60), 2, SimDuration::from_millis(240))
                    .with_jitter(0.0),
            )
            .with_hedging(s2s_netsim::HedgeConfig {
                percentile: 50,
                min_samples: 1,
                min_delay: SimDuration::from_micros(1),
            });
        // A flaky primary makes some exchanges straggle through retries
        // and backoff; the reliable replica answers hedges quickly.
        let s2s = deploy_replicated(FailureModel::flaky(0.7), FailureModel::reliable(), policy);
        let (mut hedges, mut wins) = (0, 0);
        for i in 0..20 {
            let out = s2s.query(&format!("SELECT watch WHERE price < {}", 11 + i)).unwrap();
            assert!(out.hedge_wins() <= out.hedges(), "wins bounded per query");
            hedges += out.hedges();
            wins += out.hedge_wins();
        }
        assert!(hedges >= 1, "no hedge launched across 20 queries");
        assert!(wins >= 1, "no hedge won across 20 queries");
        assert!(wins <= hedges);
    }

    /// `q` with its condition, if any, doubly negated — so no leaf is
    /// required and nothing is pruned — on an engine with views, which
    /// binds nothing: every source runs unfiltered and the Instance
    /// Generator tests each record. The twin a filtered answer must equal.
    fn twin(q: &str) -> QueryOutcome {
        let q = match q.split_once(" WHERE ") {
            Some((select, condition)) => format!("{select} WHERE NOT (NOT ({condition}))"),
            None => q.to_string(),
        };
        deploy().with_views().query(&q).unwrap()
    }

    /// The answer, IRIs included, and its graph.
    fn answer(outcome: &QueryOutcome) -> (&[Individual], &s2s_rdf::Graph) {
        (outcome.individuals(), &outcome.instances.graph)
    }

    #[test]
    fn filtered_answers_equal_the_unfiltered_twin_across_source_kinds() {
        let queries = [
            "SELECT watch WHERE case='stainless-steel'",
            "SELECT watch WHERE price<100",
            "SELECT watch WHERE brand LIKE 'S%'",
            "SELECT watch WHERE brand!='Casio' AND price>=100",
            "SELECT watch WHERE brand='Seiko' OR case='resin'",
            "SELECT watch(brand) WHERE price<200",
            // Outside the decimal space: no price satisfies them.
            "SELECT watch WHERE price<'inf'",
            "SELECT watch WHERE price!='NaN'",
        ];
        let s2s = deploy();
        for q in queries {
            let twin = twin(q);
            let filtered = s2s.query(q).unwrap();
            assert_eq!(answer(&filtered), answer(&twin), "answers diverged for `{q}`");
            assert!(twin.sources.iter().all(|r| r.pushed.is_empty()), "{q}");
            assert!(
                filtered.stats.wire_response_bytes <= twin.stats.wire_response_bytes,
                "filtering shipped more response bytes for `{q}`: {} > {}",
                filtered.stats.wire_response_bytes,
                twin.stats.wire_response_bytes,
            );
        }
    }

    #[test]
    fn a_required_conjunct_filters_a_source_of_one_record_statement() {
        let q = "SELECT watch WHERE case='stainless-steel'";
        let out = deploy().query(q).unwrap();
        // DB and XML both map `case`. DB's rules share one scan; XML's
        // `//watch/…` paths select records that do not nest, so they are
        // one walk. The web page lacks `case` entirely (pruned), and the
        // single-record text file is its one record, tested whole.
        for (id, statements) in [("DB_ID_45", 1), ("XML_7", 1), ("txt_9", 2)] {
            let row = out.source(id).unwrap();
            assert_eq!(row.pushed_conjuncts(&out.plan), ["case = stainless-steel"], "{id}");
            assert_eq!((row.statements, row.unfiltered), (statements, None), "{id}");
        }
        assert!(
            out.stats.wire_response_bytes < twin(q).stats.wire_response_bytes,
            "the filtered sources must ship trimmed responses"
        );
    }

    #[test]
    fn pushdown_prunes_source_missing_required_property() {
        let s2s = deploy();
        let out = s2s.query("SELECT watch WHERE case='resin'").unwrap();
        // wpage_81 maps only brand and price: it cannot satisfy the
        // required `case` conjunct, so it is pruned before the wire.
        let pruned: Vec<&str> =
            out.sources.iter().filter(|r| r.pruned).map(|r| r.source.as_str()).collect();
        assert_eq!(pruned, ["wpage_81"]);
        let row = out.source("wpage_81").unwrap();
        assert_eq!(
            (row.tasks, row.attempts, row.wire_bytes),
            (0, 0, 0),
            "pruned source must never reach the mediator"
        );
        let twin = twin("SELECT watch WHERE case='resin'");
        assert!(twin.sources.iter().all(|r| !r.pruned));
        assert_eq!(answer(&out), answer(&twin));
    }

    /// A property is required when every side of an `OR` tests it, by
    /// whatever leaves: a source that maps no `case` would only be
    /// dialled to reject every record.
    #[test]
    fn an_or_whose_sides_test_one_property_requires_it() {
        let q = "SELECT watch WHERE (case LIKE 'd%' OR case >= 'carbon')";
        let out = deploy().query(q).unwrap();
        let row = out.source("wpage_81").unwrap();
        assert!(row.pruned, "{row:?}");
        assert_eq!((row.tasks, row.attempts, row.wire_bytes), (0, 0, 0));
        assert_eq!(answer(&out), answer(&twin(q)));
    }

    #[test]
    fn pushdown_projection_drops_unneeded_schemas() {
        let everything = deploy().query("SELECT watch").unwrap();
        let projected = deploy().query("SELECT watch(brand)").unwrap();
        // Only the four brand schemas are dispatched; price/case stay home.
        assert_eq!(projected.stats.tasks, 4);
        assert!(projected.stats.tasks < everything.stats.tasks);
        assert!(projected.stats.wire_bytes < everything.stats.wire_bytes);
        assert!(projected.sources.iter().any(|r| r.projected_out > 0));
        let brands = |o: &QueryOutcome| -> Vec<(s2s_rdf::Iri, Option<String>)> {
            let brand = s2s_rdf::Iri::new("http://example.org/schema#brand").unwrap();
            let individuals = o.individuals().iter();
            individuals.map(|i| (i.iri.clone(), i.value(&brand).map(String::from))).collect()
        };
        assert_eq!(brands(&projected), brands(&everything));
    }

    #[test]
    fn a_projection_keeps_the_schemas_a_leaf_past_the_64th_reads() {
        let mut condition: Vec<String> = (0..64).map(|i| format!("brand!='b{i}'")).collect();
        condition.push("case='resin'".into());
        let condition = condition.join(" AND ");
        let s2s = deploy();
        let projected = s2s.query(&format!("SELECT watch(brand) WHERE {condition}")).unwrap();
        let everything = s2s.query(&format!("SELECT watch WHERE {condition}")).unwrap();
        let iris = |o: &QueryOutcome| -> Vec<s2s_rdf::Iri> {
            o.individuals().iter().map(|i| i.iri.clone()).collect()
        };
        assert!(!everything.individuals().is_empty());
        assert_eq!(iris(&projected), iris(&everything));
    }

    /// The whole tree binds: an `OR` filters, each of its leaves tested
    /// at the source, and a leaf on a property the source does not map is
    /// `false` there.
    #[test]
    fn an_or_binds_whole_at_the_source() {
        let q =
            "SELECT watch WHERE (brand='Casio' AND price<100) OR (brand='Casio' AND case='resin')";
        let s2s = deploy();
        let out = s2s.query(q).unwrap();
        let db = out.source("DB_ID_45").unwrap();
        assert_eq!(
            db.pushed_conjuncts(&out.plan),
            ["brand = Casio", "price < 100", "brand = Casio", "case = resin"]
        );
        assert_eq!(db.unfiltered, None);
        let web = out.source("wpage_81").unwrap();
        assert_eq!(
            web.pushed_conjuncts(&out.plan),
            ["brand = Casio", "price < 100", "brand = Casio"]
        );
        assert_eq!(answer(&out), answer(&twin(q)));
        assert!(!out.individuals().is_empty());
    }

    #[test]
    fn pushdown_is_inert_without_condition_or_projection() {
        let out = deploy().query("SELECT watch").unwrap();
        let inert = |r: &SourceLedger| !r.pruned && r.pushed.is_empty() && r.unfiltered.is_none();
        assert!(out.sources.iter().all(inert));
    }

    #[test]
    fn filtered_answers_hold_on_every_execution_path() {
        let q = "SELECT watch WHERE price<100";
        let twin = twin(q);
        for strategy in [
            Strategy::Parallel { workers: 1 },
            Strategy::Parallel { workers: 4 },
            Strategy::Reactor,
        ] {
            let out = deploy().with_strategy(strategy).query(q).unwrap();
            assert_eq!(answer(&out), answer(&twin), "filtering diverged under {strategy:?}");
        }
    }

    /// Two classes, each mapped to its own database source, so the two
    /// queries carry disjoint dependency sets — the fixture for
    /// surgical-invalidation bounds.
    fn two_class_ontology() -> Ontology {
        Ontology::builder("http://example.org/schema#")
            .class("Alpha", None)
            .unwrap()
            .class("Beta", None)
            .unwrap()
            .datatype_property("aval", "Alpha", xsd::STRING)
            .unwrap()
            .datatype_property("bval", "Beta", xsd::STRING)
            .unwrap()
            .datatype_property("ashadow", "Alpha", xsd::STRING)
            .unwrap()
            .build()
            .unwrap()
    }

    fn alpha_db(value: &str) -> Connection {
        let mut db = Database::new("a");
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, aval TEXT)").unwrap();
        db.execute(&format!("INSERT INTO t VALUES (1, '{value}')")).unwrap();
        Connection::Database { db: Arc::new(db) }
    }

    fn deploy_two_classes() -> S2s {
        let mut db_b = Database::new("b");
        db_b.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, bval TEXT)").unwrap();
        db_b.execute("INSERT INTO t VALUES (1, 'b0')").unwrap();
        let mut s2s = S2s::new(two_class_ontology()).with_views().with_result_cache();
        s2s.register_source("SRC_A", alpha_db("a0")).unwrap();
        s2s.register_source("SRC_B", Connection::Database { db: Arc::new(db_b) }).unwrap();
        s2s.register_attribute(
            "thing.alpha.aval",
            ExtractionRule::Sql {
                query: "SELECT aval FROM t ORDER BY id".into(),
                column: "aval".into(),
            },
            "SRC_A",
            RecordScenario::MultiRecord,
        )
        .unwrap();
        s2s.register_attribute(
            "thing.beta.bval",
            ExtractionRule::Sql {
                query: "SELECT bval FROM t ORDER BY id".into(),
                column: "bval".into(),
            },
            "SRC_B",
            RecordScenario::MultiRecord,
        )
        .unwrap();
        s2s
    }

    fn sole_value(s2s: &S2s, outcome: &QueryOutcome, property: &str) -> String {
        let iri = s2s.ontology().property_iri(property).unwrap();
        outcome.individuals().iter().filter_map(|i| i.value(&iri)).collect::<Vec<_>>().join(",")
    }

    #[test]
    fn mutation_invalidates_only_dependent_entries() {
        let s2s = deploy_two_classes();
        let a1 = s2s.query("SELECT alpha").unwrap();
        assert_eq!(sole_value(&s2s, &a1, "aval"), "a0");
        s2s.query("SELECT beta").unwrap();
        assert_eq!(s2s.result_cache_len(), 2);

        let version = s2s
            .mutate_source("SRC_A", alpha_db("a1"), ChangeKind::RowUpdate, vec!["aval".into()])
            .unwrap();
        assert_eq!(version, 1);
        // A mutation touches no cache: SRC_A's dependents go stale in
        // place, and its slice heals against the feed on its next read.
        assert_eq!((s2s.result_cache_len(), s2s.result_cache_invalidations()), (2, 0));

        let b2 = s2s.query("SELECT beta").unwrap();
        assert_eq!(b2.stats.result_cache.hits, 1, "untouched source replays from cache");
        let a2 = s2s.query("SELECT alpha").unwrap();
        assert_eq!(a2.stats.result_cache, CacheStats { hits: 0, misses: 1, evictions: 0 });
        assert_eq!(a2.stats.view_refreshes, 1, "the touched slice is re-extracted");
        assert_eq!(sole_value(&s2s, &a2, "aval"), "a1", "the mutated value is served");
        // The recompute overwrote the stale entry and now replays.
        let a3 = s2s.query("SELECT alpha").unwrap();
        assert_eq!(a3.stats.result_cache.hits, 1);
        assert_eq!(sole_value(&s2s, &a3, "aval"), "a1");
        assert_eq!(s2s.result_cache_len(), 2);
        // SRC_B's slice outlived the mutation too: a new query over it
        // is served from the view.
        let b3 = s2s.query("SELECT beta WHERE bval='b0'").unwrap();
        assert_eq!((b3.stats.view_hits, b3.stats.round_trips), (1, 0));
    }

    #[test]
    fn mutation_of_unregistered_source_is_cache_noop() {
        let s2s = deploy_two_classes();
        s2s.query("SELECT alpha").unwrap();
        s2s.query("SELECT beta").unwrap();
        assert_eq!(s2s.result_cache_len(), 2);

        let err = s2s.mutate_source("NOPE", alpha_db("x"), ChangeKind::RowInsert, vec![]);
        assert!(matches!(err, Err(S2sError::UnknownSource { .. })));
        // A kind swap on a registered source is refused the same way.
        let mut web = WebStore::new();
        web.register_text("http://x/t", "hi");
        let swap = Connection::Text { store: Arc::new(web), url: "http://x/t".into() };
        let err = s2s.mutate_source("SRC_A", swap, ChangeKind::DocReplace, vec![]);
        assert!(matches!(err, Err(S2sError::MutationKindMismatch { .. })));

        // Failed mutations bump no version: the answer still replays, and
        // the next applied mutation is the first.
        assert_eq!(s2s.query("SELECT alpha").unwrap().stats.result_cache.hits, 1);
        let applied = s2s.mutate_source("SRC_A", alpha_db("a1"), ChangeKind::RowUpdate, vec![]);
        assert_eq!(applied.unwrap(), 1);
    }

    /// One HTML page behind three WebL rules and one regex rule.
    fn page_connection(brand: &str) -> Connection {
        let mut web = WebStore::new();
        web.register_html(
            "http://shop/w",
            format!(
                "<ul><li><b>{brand}</b> <span>120</span> <i>steel</i> <em>model: X1</em></li></ul>"
            ),
        );
        Connection::Web { store: Arc::new(web), url: "http://shop/w".into() }
    }

    #[test]
    fn stored_page_is_tokenized_once_and_never_stale() {
        let ontology = || {
            Ontology::builder("http://example.org/schema#")
                .class("Watch", None)
                .unwrap()
                .datatype_property("brand", "Watch", xsd::STRING)
                .unwrap()
                .datatype_property("price", "Watch", xsd::DECIMAL)
                .unwrap()
                .datatype_property("case", "Watch", xsd::STRING)
                .unwrap()
                .datatype_property("model", "Watch", xsd::STRING)
                .unwrap()
                .build()
                .unwrap()
        };
        for views in [false, true] {
            let mut s2s = S2s::new(ontology());
            if views {
                s2s = s2s.with_views();
            }
            s2s.register_source("PAGE", page_connection("Seiko")).unwrap();
            for (attr, tag) in [("brand", "b"), ("price", "span"), ("case", "i")] {
                let program = format!("var v = TagTexts(Text(PAGE), \"{tag}\");");
                s2s.register_attribute(
                    &format!("thing.watch.{attr}"),
                    ExtractionRule::Webl { program },
                    "PAGE",
                    RecordScenario::MultiRecord,
                )
                .unwrap();
            }
            s2s.register_attribute(
                "thing.watch.model",
                ExtractionRule::TextRegex { pattern: r"model: (\w+)".into(), group: 1 },
                "PAGE",
                RecordScenario::MultiRecord,
            )
            .unwrap();

            // Serial strategy: extraction runs on this thread, which is
            // the one `tokenize_calls` counts for.
            let before = s2s_webdoc::html::tokenize_calls();
            let first = s2s.query("SELECT watch").unwrap();
            let tokenized = s2s_webdoc::html::tokenize_calls() - before;
            assert!(tokenized <= 1, "four rules tokenized the page {tokenized} times");
            for (property, value) in
                [("brand", "Seiko"), ("price", "120"), ("case", "steel"), ("model", "X1")]
            {
                assert_eq!(sole_value(&s2s, &first, property), value, "views={views}");
            }
            let before = s2s_webdoc::html::tokenize_calls();
            let second = s2s.query("SELECT watch").unwrap();
            assert_eq!(s2s_webdoc::html::tokenize_calls(), before, "second query, views={views}");
            assert_eq!(sole_value(&s2s, &second, "brand"), "Seiko");

            // A replaced page is a new document: nothing kept from the
            // old one can answer for it.
            s2s.mutate_source("PAGE", page_connection("Orient"), ChangeKind::DocReplace, vec![])
                .unwrap();
            let third = s2s.query("SELECT watch").unwrap();
            assert_eq!(sole_value(&s2s, &third, "brand"), "Orient", "views={views}");
            assert_eq!(sole_value(&s2s, &third, "model"), "X1", "views={views}");
        }
    }

    #[test]
    fn concurrent_mutation_and_queries_never_leave_stale_answers() {
        // Whatever the interleaving of an in-flight query and a
        // mutation, the next query must observe the mutated value: an
        // old-snapshot answer and an old-snapshot view slice both carry
        // the version they read, so the next read misses or refreshes.
        let s2s = Arc::new(deploy_two_classes());
        for round in 0..20 {
            let engine = Arc::clone(&s2s);
            let racer = std::thread::spawn(move || {
                let _ = engine.query("SELECT alpha").unwrap();
            });
            let value = format!("a{}", round + 1);
            s2s.mutate_source("SRC_A", alpha_db(&value), ChangeKind::RowUpdate, vec![]).unwrap();
            racer.join().unwrap();
            let out = s2s.query("SELECT alpha").unwrap();
            assert_eq!(
                sole_value(&s2s, &out, "aval"),
                value,
                "stale answer served (round {round})"
            );
        }
    }

    #[test]
    fn mapping_edit_invalidates_only_dependent_entries() {
        let mut s2s = deploy_two_classes();
        let before = s2s.query("SELECT alpha").unwrap();
        assert_eq!(sole_value(&s2s, &before, "aval"), "a0");
        s2s.query("SELECT beta").unwrap();
        assert_eq!(s2s.result_cache_len(), 2);
        assert_eq!(s2s.plan_cache_len(), 2);

        // Editing SRC_A's existing mapping drops only SRC_A's answers.
        // Plans depend on the ontology and the query text alone: both
        // survive, and the surviving plan runs the new rule.
        s2s.register_attribute(
            "thing.alpha.aval",
            ExtractionRule::Sql {
                query: "SELECT id FROM t ORDER BY id".into(),
                column: "id".into(),
            },
            "SRC_A",
            RecordScenario::MultiRecord,
        )
        .unwrap();
        assert_eq!(s2s.result_cache_len(), 1);
        assert_eq!(s2s.plan_cache_len(), 2);
        let after = s2s.query("SELECT alpha").unwrap();
        assert_eq!((after.stats.result_cache.hits, after.stats.plan_cache.hits), (0, 1));
        assert_eq!(sole_value(&s2s, &after, "aval"), "1", "the answer reflects the new rule");
        assert_eq!(
            s2s.query("SELECT beta").unwrap().stats.result_cache.hits,
            1,
            "the untouched source's hot entry replays"
        );

        // A *fresh* registration clears wholesale: existing answers may
        // be missing data the newcomer would have contributed.
        s2s.register_attribute(
            "thing.alpha.ashadow",
            ExtractionRule::Sql {
                query: "SELECT aval FROM t ORDER BY id".into(),
                column: "aval".into(),
            },
            "SRC_A",
            RecordScenario::MultiRecord,
        )
        .unwrap();
        assert_eq!(s2s.result_cache_len(), 0);
    }

    /// An edit that keeps the rule text but changes the record scenario
    /// moves no version and misses no view by rule, so only the
    /// edit-time drop of the source's slices keeps the answer right: the
    /// single-record slice holds one value, the multi-record rule reads
    /// two. Both slices of the edited source re-extract, in one exchange.
    #[test]
    fn a_record_scenario_edit_re_extracts_under_the_same_rule_text() {
        let mut s2s = deploy_views();
        let brand = s2s.ontology().property_iri("brand").unwrap();
        let brands = |o: &QueryOutcome| {
            let mut v: Vec<_> = o.individuals().iter().filter_map(|i| i.value(&brand)).collect();
            v.sort_unstable();
            v.join(",")
        };
        let rule = ExtractionRule::Sql {
            query: "SELECT brand FROM w ORDER BY id".into(),
            column: "brand".into(),
        };
        let path = "thing.product.watch.brand";
        assert_eq!(brands(&s2s.query("SELECT watch").unwrap()), "Casio,Seiko");
        for (scenario, expected) in [
            (RecordScenario::SingleRecord, "Seiko,Seiko"),
            (RecordScenario::MultiRecord, "Casio,Seiko"),
        ] {
            s2s.register_attribute(path, rule.clone(), "DB", scenario).unwrap();
            let after = s2s.query("SELECT watch").unwrap();
            assert_eq!((after.stats.view_hits, after.stats.round_trips), (0, 1), "{scenario:?}");
            assert_eq!(brands(&after), expected, "{scenario:?}");
        }
    }

    /// One remote database with two mapped attributes, views enabled —
    /// the incremental-maintenance fixture.
    fn deploy_views() -> S2s {
        let mut db = Database::new("d");
        db.execute("CREATE TABLE w (id INTEGER PRIMARY KEY, brand TEXT, price REAL)").unwrap();
        db.execute("INSERT INTO w VALUES (1, 'Seiko', 100), (2, 'Casio', 50)").unwrap();
        let mut s2s = S2s::new(ontology()).with_views();
        s2s.register_remote_source(
            "DB",
            Connection::Database { db: Arc::new(db) },
            CostModel::wan(),
            FailureModel::reliable(),
        )
        .unwrap();
        for (attr, col) in [("brand", "brand"), ("price", "price")] {
            s2s.register_attribute(
                &format!("thing.product.watch.{attr}"),
                ExtractionRule::Sql {
                    query: format!("SELECT {col} FROM w ORDER BY id"),
                    column: col.into(),
                },
                "DB",
                RecordScenario::MultiRecord,
            )
            .unwrap();
        }
        s2s
    }

    fn watch_db(brand: &str, price: u32) -> Connection {
        let mut db = Database::new("d");
        db.execute("CREATE TABLE w (id INTEGER PRIMARY KEY, brand TEXT, price REAL)").unwrap();
        db.execute(&format!("INSERT INTO w VALUES (1, '{brand}', {price}), (2, 'Casio', 50)"))
            .unwrap();
        Connection::Database { db: Arc::new(db) }
    }

    #[test]
    fn views_serve_repeat_queries_without_wire_traffic() {
        let s2s = deploy_views();
        let first = s2s.query("SELECT watch").unwrap();
        assert_eq!(first.stats.view_hits, 0);
        assert!(first.stats.wire_bytes > 0);
        let second = s2s.query("SELECT watch").unwrap();
        assert_eq!(second.stats.view_hits, 2, "both slices are fresh views");
        assert_eq!(second.stats.round_trips, 0);
        assert_eq!(second.stats.wire_bytes, 0);
        assert_eq!(second.stats.simulated, SimDuration::ZERO);
        assert_eq!(second.stats.feed_polls, 0, "matching versions need no poll");
        assert_eq!(first.instances.graph, second.instances.graph);
        assert_eq!(first.stats.view_hits + second.stats.view_hits, 2);
    }

    #[test]
    fn views_advance_past_untouching_mutations_without_reextraction() {
        let s2s = deploy_views();
        let first = s2s.query("SELECT watch").unwrap();
        // The mutation touches only `price`; the brand slice is
        // provably unaffected and advances for the price of a poll.
        s2s.mutate_source("DB", watch_db("Seiko", 80), ChangeKind::RowUpdate, vec!["price".into()])
            .unwrap();
        let after = s2s.query("SELECT watch").unwrap();
        assert_eq!(after.stats.view_hits, 1, "brand advanced without re-extraction");
        assert_eq!(after.stats.view_refreshes, 1, "price re-extracted");
        assert_eq!(after.stats.view_full_refreshes, 0);
        assert_eq!(after.stats.feed_polls, 1, "slices of one source share the poll");
        assert!(
            after.stats.wire_response_bytes < first.stats.wire_response_bytes,
            "delta maintenance shipped fewer response bytes ({}) than the cold extraction ({})",
            after.stats.wire_response_bytes,
            first.stats.wire_response_bytes,
        );
        let price = s2s.ontology().property_iri("price").unwrap();
        assert!(
            after.individuals().iter().filter_map(|i| i.value(&price)).any(|v| v == "80"),
            "the mutated price is served"
        );
    }

    /// Views hold slices whole: an engine with views runs every source it
    /// extracts unfiltered — a partly view-served one too — so a `WHERE`
    /// query warms them; and a filtered column handed to the store is
    /// never kept.
    #[test]
    fn views_keep_slices_whole_and_never_store_a_filtered_column() {
        use crate::ledger::Unfiltered;
        let s2s = deploy_views();
        let q = "SELECT watch WHERE price < 100";
        let cold = s2s.query(q).unwrap();
        let row = cold.source("DB").unwrap();
        assert_eq!((row.pushed.len(), row.unfiltered), (0, Some(Unfiltered::Views)));
        s2s.mutate_source("DB", watch_db("Seiko", 80), ChangeKind::RowUpdate, vec!["price".into()])
            .unwrap();
        let partly = s2s.query(q).unwrap();
        let row = partly.source("DB").unwrap();
        assert_eq!((row.view_hits, row.view_refreshes), (1, 1), "brand served, price re-read");
        assert_eq!((row.pushed.len(), row.unfiltered), (0, Some(Unfiltered::Views)));
        let warm = s2s.query(q).unwrap();
        assert_eq!((warm.stats.view_hits, warm.stats.round_trips), (2, 0));
        assert_eq!(warm.source("DB").unwrap().unfiltered, None, "served whole, never extracted");
        assert_eq!(answer(&warm), answer(&partly), "the mutated price is served");
        assert_eq!(warm.individuals().len(), 2);

        let views = SemanticViews::default();
        let mut mappings = s2s.mappings.read().iter().cloned().collect::<Vec<_>>();
        let mapping = Arc::new(mappings.remove(0));
        let mut values: crate::extract::Values = ["Casio"].into_iter().collect();
        values.number(Arc::from([1u32].as_slice()));
        let filtered = AttributeResult { mapping, values, elapsed: SimDuration::ZERO };
        let mut deps = DependencySet::new();
        deps.record("DB", 0);
        views.store(std::slice::from_ref(&filtered), &deps, SimDuration::ZERO);
        let schemas = vec![ExtractionSchema { mapping: filtered.mapping }];
        let registry = s2s.registry.read();
        let (left, served) =
            views.partition(&registry, schemas, &deps, &mut Vec::new(), SimDuration::ZERO);
        assert!(served.is_empty() && left.len() == 1, "a filtered column was stored");
    }

    #[test]
    fn view_feed_gap_falls_back_to_full_refresh() {
        let s2s = deploy_views();
        s2s.query("SELECT watch").unwrap();
        // Push the feed far past its retention so `since = 1` predates
        // the retained history: the delta is unsound for both slices.
        for i in 0..70 {
            s2s.mutate_source(
                "DB",
                watch_db("Orient", 200 + i),
                ChangeKind::RowUpdate,
                vec!["price".into()],
            )
            .unwrap();
        }
        let after = s2s.query("SELECT watch").unwrap();
        assert_eq!(after.stats.view_full_refreshes, 2);
        assert_eq!(after.stats.view_hits, 0);
        let brand = s2s.ontology().property_iri("brand").unwrap();
        assert!(
            after.individuals().iter().filter_map(|i| i.value(&brand)).any(|v| v == "Orient"),
            "the full refresh serves current data"
        );
        // Views are re-materialized: the next query is all hits again.
        assert_eq!(s2s.query("SELECT watch").unwrap().stats.view_hits, 2);
    }

    #[test]
    fn view_answers_match_recompute_after_every_mutation() {
        // The delta-soundness contract the conform oracle fuzzes:
        // view-maintained answers are fingerprint-identical to a
        // recompute from scratch, whatever the mutation pattern.
        let s2s = deploy_views();
        // Each step declares exactly the fields its connection swap
        // really changes — the contract `mutate_source` callers owe.
        let steps: [(&str, u32, &[&str]); 4] = [
            ("Seiko", 61, &["price"]),
            ("B1", 61, &["brand"]),
            ("B2", 62, &[]),
            ("B3", 63, &["brand", "price"]),
        ];
        for (i, (brand, price, touched)) in steps.iter().enumerate() {
            s2s.query("SELECT watch").unwrap();
            s2s.mutate_source(
                "DB",
                watch_db(brand, *price),
                ChangeKind::RowUpdate,
                touched.iter().map(|f| f.to_string()).collect(),
            )
            .unwrap();
            let maintained = s2s.query("SELECT watch").unwrap();
            let mut fresh = S2s::new(ontology());
            fresh.register_source("DB", watch_db(brand, *price)).unwrap();
            for (attr, col) in [("brand", "brand"), ("price", "price")] {
                fresh
                    .register_attribute(
                        &format!("thing.product.watch.{attr}"),
                        ExtractionRule::Sql {
                            query: format!("SELECT {col} FROM w ORDER BY id"),
                            column: col.into(),
                        },
                        "DB",
                        RecordScenario::MultiRecord,
                    )
                    .unwrap();
            }
            let recomputed = fresh.query("SELECT watch").unwrap();
            assert_eq!(
                answer(&maintained),
                answer(&recomputed),
                "delta answer diverged after mutation {i} touching {touched:?}"
            );
        }
    }

    #[test]
    fn bootstrap_matches_handwritten_on_the_demo_database() {
        // Bootstrap the demo DB source and compare against the
        // hand-written deployment: same mappings, same query answer.
        let handwritten = deploy();
        let baseline = handwritten.query("SELECT watch WHERE brand=\"Seiko\"").unwrap();

        let mut db = Database::new("catalog");
        db.execute(
            "CREATE TABLE watches (id INTEGER PRIMARY KEY, brand TEXT, price REAL, case_m TEXT)",
        )
        .unwrap();
        db.execute(
            "INSERT INTO watches VALUES \
             (1,'Seiko',129.99,'stainless-steel'), (2,'Casio',59.5,'resin')",
        )
        .unwrap();
        let mut s2s = S2s::new(ontology());
        s2s.register_source("DB_ID_45", Connection::Database { db: Arc::new(db) }).unwrap();
        let report = s2s.register_bootstrapped("DB_ID_45").unwrap();
        assert_eq!(report.candidates.iter().filter(|c| c.applied).count(), 3);
        assert_eq!(s2s.mapping_count(), 3);

        let bootstrapped = s2s.query("SELECT watch WHERE brand=\"Seiko\"").unwrap();
        let values = |o: &QueryOutcome| {
            let mut v: Vec<(String, String, String)> = o
                .instances
                .individuals
                .iter()
                .flat_map(|i| {
                    i.values.iter().flat_map(|(p, vals)| {
                        vals.iter().map(|val| (i.class.to_string(), p.to_string(), val.clone()))
                    })
                })
                .collect();
            v.sort();
            v
        };
        // The hand-written deployment integrates four sources; restrict
        // the comparison to what the DB contributed.
        let from_db: Vec<_> = values(&baseline)
            .into_iter()
            .filter(|(_, _, v)| ["Seiko", "129.99", "stainless-steel"].contains(&v.as_str()))
            .collect();
        assert!(!from_db.is_empty());
        for entry in &from_db {
            assert!(values(&bootstrapped).contains(entry), "missing {entry:?}");
        }
    }

    #[test]
    fn bootstrap_conflicts_surface_and_override_round_trips() {
        // A source whose schema has a name collision (`price` and
        // `price_usd` both hit the `price` property) and an unmappable
        // primary-key column must surface both conflicts and register
        // nothing until the caller resolves the winner.
        let mut db = Database::new("feed");
        db.execute("CREATE TABLE prices (id INTEGER PRIMARY KEY, price REAL, price_usd REAL)")
            .unwrap();
        db.execute("INSERT INTO prices VALUES (1, 129.99, 142.5)").unwrap();
        let mut s2s = S2s::new(ontology());
        s2s.register_source("FEED", Connection::Database { db: Arc::new(db) }).unwrap();

        let mut report = s2s.register_bootstrapped("FEED").unwrap();
        let kinds: Vec<&str> =
            report.conflicts.iter().map(crate::bootstrap::Conflict::kind).collect();
        assert!(kinds.contains(&"name-collision"), "{kinds:?}");
        assert!(kinds.contains(&"unmappable"), "{kinds:?}");
        assert_eq!(s2s.mapping_count(), 0);

        // The override round-trips: resolve → apply → queryable.
        report.resolve("price", "thing.product.watch.price").unwrap();
        assert_eq!(s2s.apply_bootstrap(&mut report).unwrap(), 1);
        assert_eq!(s2s.mapping_count(), 1);
        let outcome = s2s.query("SELECT watch").unwrap();
        assert!(outcome.individuals().iter().any(|i| i
            .values
            .iter()
            .flat_map(|(_, values)| values)
            .any(|v| v == "129.99")));
        // Re-applying is a no-op: the candidate is marked applied.
        assert_eq!(s2s.apply_bootstrap(&mut report).unwrap(), 0);
    }
}
