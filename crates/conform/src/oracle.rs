//! Oracles: every answer against the ground truth, plus the invariants
//! that are not answer equality.
//!
//! [`check_scenario`] runs one generated scenario through every way of
//! running the engine (an *arm*) and returns the violated oracles (empty
//! on a healthy scenario). Every answer an arm gives is checked by one
//! oracle, `ground-truth`, against [`Scenario::expected`], with the arm
//! named in the detail: batched `r0`–`r2` (one engine asked
//! `ATTRS.len()` times, so faults scheduled past the first exchange
//! fire), replay `first`/`second`, pooled `t0`–`t2` (three threads on one
//! engine), `decoy-on` (plus a brand-only DB source), `delta` rounds 0–4
//! (materialized views through three mutation rounds), `bootstrap`,
//! `shed-recovery`, `hedged`, `flaky(0)` and the metamorphic variants
//! ([`crate::meta`]). An answer's lines name each individual's record, so
//! identity is compared too: a filtered source keeps its records'
//! numbers. A deadline-limited answer must be a subset of it
//! (`overload-subset`).
//!
//! The other checks are not answer equality:
//!
//! * **Stats** — `failed_tasks` counts the reported errors, the makespan
//!   stays under the serial bound, a fresh query makes one plan-cache
//!   lookup, a batched run has one task per schema, and a fault-free one
//!   makes no retry, no failover and one exchange per source.
//! * **Replay** — a complete first answer is replayed from the result
//!   cache with zero round trips, zero simulated time and no plan-cache
//!   lookup; a degraded one is never admitted.
//! * **Overload** — a shed query is refused at arrival with an honestly
//!   empty answer and touches neither the wire nor the caches; a
//!   deadline never raises completeness; `hedge_wins ≤ hedges`.
//! * **Pushdown** — filtered responses never outgrow the unfiltered
//!   twin's (the scenario asked with no condition), a pruned source is
//!   never dialled, and the decoy is pruned whenever the condition
//!   requires `price` or `case`.
//! * **Views** — an unmutated repeat is served from views without the
//!   wire, and every warm slice is a hit, refresh or full refresh.
//! * **Bootstrap coverage** — every source bootstraps one applied
//!   mapping per attribute.
//! * **Determinism** — identically seeded flaky, deadline, hedged,
//!   batched, delta and bootstrap runs agree.
//! * **Monotonicity** — on `flaky(p)` endpoints without retry or
//!   failover, completeness is non-increasing in `p`.

use std::sync::Arc;

use s2s_core::extract::ResiliencePolicy;
use s2s_core::middleware::{QueryOutcome, QueryStats};
use s2s_core::{QueryOptions, S2s};
use s2s_netsim::{AdmissionConfig, HedgeConfig, RetryPolicy, SimDuration};

use crate::expected::Answer;
use crate::meta;
use crate::scenario::{BuildConfig, Cond, FaultClass, Record, Scenario, SourceSpec, ATTRS};

/// One violated oracle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which oracle fired (stable, kebab-case).
    pub oracle: String,
    /// Human-readable detail.
    pub detail: String,
}

impl Violation {
    fn new(oracle: &str, detail: impl Into<String>) -> Self {
        Violation { oracle: oracle.into(), detail: detail.into() }
    }
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.oracle, self.detail)
    }
}

/// An individual's line names the record it was minted from: the last
/// segment of its IRI.
impl From<&QueryOutcome> for Answer {
    fn from(outcome: &QueryOutcome) -> Answer {
        let individuals = outcome.individuals().iter().map(|i| {
            let values = i.values.iter().flat_map(|(property, values)| {
                values.iter().map(move |v| (property.local_name(), v.as_str()))
            });
            let record = i.iri.as_str().rsplit('/').next().unwrap_or_default();
            Answer::line(&i.source, record, values)
        });
        let failed = outcome.errors().iter().map(|e| (e.source.clone(), e.attribute.clone()));
        Answer::new(individuals.collect(), failed)
    }
}

/// The `ground-truth` oracle: `arm` answered `outcome`, which must be
/// `expected`.
pub(crate) fn ground_truth(
    arm: &str,
    outcome: &QueryOutcome,
    expected: &Answer,
    violations: &mut Vec<Violation>,
) {
    let answer = Answer::from(outcome);
    if answer != *expected {
        violations.push(Violation::new(
            "ground-truth",
            format!("{arm} answered\n{answer}expected\n{expected}"),
        ));
    }
}

/// Runs every oracle over `scenario`; returns the violations found.
pub fn check_scenario(scenario: &Scenario) -> Vec<Violation> {
    let mut violations = Vec::new();
    let expected = scenario.expected();
    let query = scenario.query_text();
    let n_sources = scenario.sources.len();
    let n_schemas = n_sources * ATTRS.len();

    // --- The three execution paths ----------------------------------
    // The batched engine is asked once per attribute: each repeat
    // advances every endpoint's call index, so faults scheduled past the
    // first exchange fire too.
    let batched = scenario.build(&BuildConfig::batched());
    let first = match batched.query(&query) {
        Ok(o) => o,
        Err(e) => {
            violations.push(Violation::new("query-valid", format!("batched path errored: {e}")));
            return violations;
        }
    };
    let mut batched_runs = vec![first];
    batched_runs.extend(
        (1..ATTRS.len()).map(|_| batched.query(&query).expect("parsed on the batched path")),
    );
    for (r, outcome) in batched_runs.iter().enumerate() {
        let (path, s) = (format!("batched-r{r}"), &outcome.stats);
        ground_truth(&path, outcome, &expected, &mut violations);
        check_stats(outcome, &path, &mut violations);
        if scenario.fault_free() {
            if outcome.retries() != 0 || outcome.failovers() != 0 {
                violations.push(Violation::new(
                    "zero-fault-resilience",
                    format!(
                        "{path}: retries {} failovers {} without faults",
                        outcome.retries(),
                        outcome.failovers()
                    ),
                ));
            }
            if s.round_trips != n_sources as u64 {
                violations.push(Violation::new(
                    "round-trip-conservation",
                    format!(
                        "{path}: fault-free round_trips {} != source count {n_sources}",
                        s.round_trips
                    ),
                ));
            }
        }
        if s.tasks != n_schemas {
            violations.push(Violation::new(
                "task-conservation",
                format!("{path}: tasks {} != schemas {n_schemas}", s.tasks),
            ));
        }
    }
    let batched_outcome = &batched_runs[0];

    let replay_engine = scenario.build(&BuildConfig::replay());
    let replay_first = replay_engine.query(&query).expect("parsed on the batched path");
    check_stats(&replay_first, "replay-first", &mut violations);
    ground_truth("replay-first", &replay_first, &expected, &mut violations);
    let replay_second = replay_engine.query(&query).expect("parsed on the batched path");
    ground_truth("replay-second", &replay_second, &expected, &mut violations);
    check_replay(&replay_first, &replay_second, &mut violations);

    let pooled = Arc::new(scenario.build(&BuildConfig::pooled(4)));
    let pooled_outcomes: Vec<QueryOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let pooled = Arc::clone(&pooled);
                let query = query.clone();
                scope.spawn(move || pooled.query(&query).expect("parsed on the batched path"))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("no panic in client thread")).collect()
    });
    for (t, outcome) in pooled_outcomes.iter().enumerate() {
        check_stats(outcome, &format!("pooled-t{t}"), &mut violations);
        ground_truth(&format!("pooled-t{t}"), outcome, &expected, &mut violations);
    }

    violations.extend(meta::check_metamorphic(scenario, &expected));
    // Probabilistic probes (heavier; run on a slice).
    if scenario.seed.is_multiple_of(4) {
        violations.extend(check_monotonicity(scenario));
    }
    violations.extend(check_overload(scenario, &expected, batched_outcome));
    violations.extend(check_pushdown(scenario, &expected, batched_outcome));
    violations.extend(check_delta(scenario));
    violations.extend(check_bootstrap(scenario, &expected));
    violations
}

/// Delta maintenance: materialized semantic views answering out of the
/// source change feeds, through mutation rounds.
///
/// Gated to fault-free scenarios: a mutation changes how many wire
/// calls each query issues, which would move call-indexed fault
/// schedules.
///
/// The protocol runs one engine through a cold query, a warm repeat,
/// and three mutation rounds. Rounds alternate between price-only
/// mutations that honestly declare `fields = ["price"]` (exercising
/// the untouched-slice fast path) and whole-catalog mutations that
/// declare nothing (the conservative touches-everything path). Every
/// round's answer is checked against [`Scenario::expected_over`] the
/// catalog as mutated so far, and three invariants more:
///
/// * **view replay** — the unmutated repeat is served entirely from
///   views, with zero round trips;
/// * **accounting** — every warm slice is accounted as hit, refresh, or
///   full refresh;
/// * **determinism** — a second protocol run reproduces the first.
///
/// An engine with views holds its slices whole, so a source whose
/// slices it extracts runs unfiltered whatever the condition.
fn check_delta(scenario: &Scenario) -> Vec<Violation> {
    if !scenario.fault_free() {
        return Vec::new();
    }
    check_delta_arm(scenario, "delta", &BuildConfig::delta())
}

fn check_delta_arm(scenario: &Scenario, arm: &str, config: &BuildConfig) -> Vec<Violation> {
    let mut violations = Vec::new();
    let oracle = |name: &str| format!("{arm}-{name}");
    let query = scenario.query_text();
    let n_schemas = (scenario.sources.len() * ATTRS.len()) as u64;

    // (answer, stats, expected answer) per protocol round.
    let run_protocol = || -> Vec<(Answer, QueryStats, Answer)> {
        let engine = scenario.build(config);
        let mut records = scenario.records();
        let mut trace = Vec::new();
        for round in 0..5 {
            if round >= 2 {
                mutate_catalog(&mut records, round);
                let fields: Vec<String> =
                    if round % 2 == 0 { vec!["price".into()] } else { Vec::new() };
                for (i, spec) in scenario.sources.iter().enumerate() {
                    engine
                        .mutate_source(
                            &format!("SRC_{i}"),
                            crate::scenario::connection_for(spec.kind, &records),
                            crate::scenario::change_kind_for(spec.kind),
                            fields.clone(),
                        )
                        .expect("source registered by build");
                }
            }
            let outcome = engine.query(&query).expect("parsed on the batched path");
            trace.push((Answer::from(&outcome), outcome.stats, scenario.expected_over(&records)));
        }
        trace
    };

    let trace = run_protocol();
    for (round, (answer, _, expected)) in trace.iter().enumerate() {
        if answer != expected {
            violations.push(Violation::new(
                "ground-truth",
                format!("{arm} round {round} answered\n{answer}expected\n{expected}"),
            ));
        }
    }
    let warm = &trace[1].1;
    if warm.round_trips != 0 || warm.view_hits != n_schemas {
        violations.push(Violation::new(
            &oracle("view-replay"),
            format!(
                "unmutated repeat touched the wire: round_trips {} view_hits {} (schemas {})",
                warm.round_trips, warm.view_hits, n_schemas
            ),
        ));
    }
    for (round, (_, s, _)) in trace.iter().enumerate().skip(1) {
        if s.view_hits + s.view_refreshes + s.view_full_refreshes != n_schemas {
            violations.push(Violation::new(
                &oracle("accounting"),
                format!(
                    "round {round}: hits {} + refreshes {} + full refreshes {} != schemas \
                     {n_schemas}",
                    s.view_hits, s.view_refreshes, s.view_full_refreshes
                ),
            ));
        }
    }
    if run_protocol() != trace {
        violations.push(Violation::new(
            &oracle("determinism"),
            "two identically seeded delta protocols disagreed".to_string(),
        ));
    }

    violations
}

/// Advances the catalog one mutation round: every integer price moves
/// (a respelled one stays as spelled); the declare-nothing rounds (odd)
/// additionally rotate every brand, so the mutation really is confined
/// to the declared fields on even rounds.
fn mutate_catalog(records: &mut [Record], round: usize) {
    use crate::scenario::BRANDS;
    for r in records.iter_mut() {
        match r.price.parse::<i64>() {
            Ok(price) if price.to_string() == r.price => {
                r.price = (price + 7 * (round as i64 + 1)).to_string();
            }
            _ => {}
        }
        if round % 2 == 1 {
            let i = BRANDS.iter().position(|&b| b == r.brand).unwrap_or(0);
            r.brand = BRANDS[(i + 1) % BRANDS.len()].to_string();
        }
    }
}

/// Bootstrap: an engine whose mappings come entirely from the automatic
/// schema bootstrap (`S2s::bootstrap_source` + `apply_bootstrap`) must
/// answer what the scenario expects.
///
/// Gated to fault-free scenarios (bootstrap introspection does not
/// touch the wire, but the query does, and fault schedules are
/// call-indexed). The sources are registered as [`Scenario::build`]
/// registers them; the operator makes the interventions the conform
/// catalog genuinely needs: the bare `<b>`/`<i>` web tags carry no name
/// signal and surface as ambiguous-target conflicts (resolved to
/// brand/case), a price field whose samples are not all numbers (a
/// spelled catalog's placeholders, or a `TEXT` column) surfaces as an
/// ambiguous-type conflict (accepted for its path), and single-record
/// sources override the shape-implied multi-record scenario. Besides
/// the `bootstrap` arm's answer:
///
/// * **coverage** — every source bootstraps exactly one accepted,
///   applied candidate per attribute;
/// * **determinism** — a second bootstrap run produces byte-identical
///   candidate sets (field, path, rule, scenario, confidence) and the
///   same answer.
fn check_bootstrap(scenario: &Scenario, expected: &Answer) -> Vec<Violation> {
    use s2s_core::bootstrap::Conflict;
    use s2s_core::mapping::RecordScenario;

    let mut violations = Vec::new();
    if !scenario.fault_free() {
        return violations;
    }
    let query = scenario.query_text();

    // Candidate-set signature for the determinism check.
    let signature = |report: &s2s_core::BootstrapReport| -> String {
        report
            .candidates
            .iter()
            .map(|c| {
                format!(
                    "{}|{}|{:?}|{:?}|{}|{}",
                    c.field, c.path, c.rule, c.scenario, c.confidence, c.accepted
                )
            })
            .collect::<Vec<_>>()
            .join("\n")
    };

    let build = || -> Result<(S2s, Vec<String>), String> {
        let mut s2s = scenario.deploy(&BuildConfig::batched(), None);
        let mut signatures = Vec::new();
        for (i, spec) in scenario.sources.iter().enumerate() {
            let id = format!("SRC_{i}");
            let mut report = s2s.bootstrap_source(&id).map_err(|e| format!("{id}: {e}"))?;
            if matches!(spec.kind, crate::scenario::SourceKindSpec::Web) {
                report
                    .resolve("b", "thing.product.watch.brand")
                    .map_err(|e| format!("{id}: {e}"))?;
                report
                    .resolve("i", "thing.product.watch.case")
                    .map_err(|e| format!("{id}: {e}"))?;
            }
            let typed: Vec<(String, String)> = report
                .conflicts
                .iter()
                .filter_map(|c| match c {
                    Conflict::AmbiguousType { field, path, .. } => {
                        Some((field.clone(), path.clone()))
                    }
                    _ => None,
                })
                .collect();
            for (field, path) in typed {
                report.resolve(&field, &path).map_err(|e| format!("{id}: {e}"))?;
            }
            if spec.single_record {
                report.override_scenario(RecordScenario::SingleRecord);
            }
            s2s.apply_bootstrap(&mut report).map_err(|e| format!("{id}: {e}"))?;
            let applied = report.candidates.iter().filter(|c| c.applied).count();
            if applied != ATTRS.len() {
                return Err(format!(
                    "{id} ({:?}): {applied} mappings bootstrapped, want {}",
                    spec.kind,
                    ATTRS.len()
                ));
            }
            signatures.push(signature(&report));
        }
        Ok((s2s, signatures))
    };

    let (engine, signatures) = match build() {
        Ok(pair) => pair,
        Err(detail) => {
            violations.push(Violation::new("bootstrap-coverage", detail));
            return violations;
        }
    };
    let outcome = engine.query(&query).expect("parsed on the batched path");
    ground_truth("bootstrap", &outcome, expected, &mut violations);

    let (engine2, signatures2) = match build() {
        Ok(pair) => pair,
        Err(detail) => {
            violations.push(Violation::new("bootstrap-determinism", detail));
            return violations;
        }
    };
    if signatures2 != signatures {
        violations.push(Violation::new(
            "bootstrap-determinism",
            "re-bootstrap produced a different candidate set".to_string(),
        ));
    }
    let outcome2 = engine2.query(&query).expect("parsed on the batched path");
    if Answer::from(&outcome2) != Answer::from(&outcome) {
        violations.push(Violation::new(
            "bootstrap-determinism",
            "re-bootstrapped engine answered differently".to_string(),
        ));
    }
    violations
}

/// Pushdown: the planner prunes sources and filters records at the
/// source, but never changes the answer — which the batched arms check.
/// Besides:
///
/// * **wire monotonicity** — the batched run's responses are subsets of
///   its unfiltered twin's (the scenario asked with no condition, which
///   binds nothing; its answer is checked as its own scenario's), so
///   `wire_response_bytes` never exceeds the twin's.
/// * **pruned silence** — a pruned source's ledger row shows no task,
///   no pushed conjunct, no attempt and no byte (it was never dialled).
/// * **determinism** — two identically seeded runs keep equal ledgers.
///
/// The `decoy-on` arm adds a reliable DB source that maps only `brand`:
/// a conjunct that requires `price` or `case` must prune it, and it adds
/// a brand-only line per record that passes the conditions.
fn check_pushdown(
    scenario: &Scenario,
    expected: &Answer,
    filtered: &QueryOutcome,
) -> Vec<Violation> {
    let mut violations = Vec::new();
    let query = scenario.query_text();
    let batched = || scenario.build(&BuildConfig::batched());

    let bare = Scenario { conditions: Vec::new(), ..scenario.clone() };
    let twin = bare.build(&BuildConfig::batched()).query(&bare.query_text()).expect("valid");
    ground_truth("unfiltered", &twin, &bare.expected(), &mut violations);
    if filtered.stats.wire_response_bytes > twin.stats.wire_response_bytes {
        violations.push(Violation::new(
            "pushdown-wire-monotonicity",
            format!(
                "filtered responses grew: {} bytes vs unfiltered {}",
                filtered.stats.wire_response_bytes, twin.stats.wire_response_bytes
            ),
        ));
    }
    check_pruned_rows(filtered, &mut violations);

    let again = batched().query(&query).expect("parsed on the batched path");
    if again.sources != filtered.sources {
        violations.push(Violation::new(
            "pushdown-determinism",
            "two identically seeded runs kept different ledgers".to_string(),
        ));
    }

    // --- Decoy pruning arm -------------------------------------------
    if !scenario.conditions.is_empty() {
        let on = decoy_engine(scenario).query(&query).expect("parsed on the batched path");
        let mut lines = expected.individuals.clone();
        let records = scenario.records();
        for (index, r) in
            records.iter().enumerate().filter(|(_, r)| scenario.selects(r, |a| a == 0))
        {
            lines.push(Answer::line("DECOY", index, [(ATTRS[0], r.brand.as_str())]));
        }
        ground_truth(
            "decoy-on",
            &on,
            &Answer::new(lines, expected.failed.clone()),
            &mut violations,
        );
        let requires_beyond_brand =
            scenario.conditions.iter().flat_map(Cond::required).any(|attr| attr != 0);
        let pruned_decoy = on.source("DECOY").is_some_and(|r| r.pruned);
        if requires_beyond_brand && !pruned_decoy {
            violations.push(Violation::new(
                "pushdown-prune",
                "decoy source mapping only `brand` was not pruned though the condition \
                 requires another attribute"
                    .to_string(),
            ));
        }
        check_pruned_rows(&on, &mut violations);
    }

    violations
}

/// A pruned source was planned away whole: its row shows no task and
/// no pushed conjunct (`pushdown-stats`), no attempt and no wire byte
/// (`pushdown-pruned-attempts`).
fn check_pruned_rows(outcome: &QueryOutcome, violations: &mut Vec<Violation>) {
    for r in outcome.sources.iter().filter(|r| r.pruned) {
        if r.tasks != 0 || !r.pushed.is_empty() {
            violations.push(Violation::new(
                "pushdown-stats",
                format!("pruned source {} ran {} tasks, pushed {:?}", r.source, r.tasks, r.pushed),
            ));
        }
        if r.attempts + r.breaker_rejections != 0 || r.wire_bytes != 0 {
            violations.push(Violation::new(
                "pushdown-pruned-attempts",
                format!("pruned source {} was dialled anyway: {r:?}", r.source),
            ));
        }
    }
}

/// The batched deployment plus one reliable DB source (`DECOY`) that
/// maps only `brand` — prunable whenever the condition requires `price`
/// or `case`, and a harmless extra contributor otherwise.
fn decoy_engine(scenario: &Scenario) -> S2s {
    use crate::scenario::{connection_for, rule_for, SourceKindSpec};
    use s2s_netsim::{CostModel, FailureModel, FaultSchedule};

    let mut s2s = scenario.build(&BuildConfig::batched());
    s2s.register_remote_source_detailed(
        "DECOY",
        connection_for(SourceKindSpec::Db, &scenario.records()),
        CostModel::wan(),
        FailureModel::reliable(),
        Some(scenario.endpoint_seed(scenario.sources.len())),
        FaultSchedule::new(),
    )
    .expect("fresh id");
    s2s.register_attribute(
        &crate::scenario::attribute_path(0),
        rule_for(SourceKindSpec::Db, 0),
        "DECOY",
        s2s_core::mapping::RecordScenario::MultiRecord,
    )
    .expect("valid by construction");
    s2s
}

/// Internal-consistency invariants of one outcome's [`QueryStats`].
fn check_stats(outcome: &QueryOutcome, path: &str, violations: &mut Vec<Violation>) {
    let s: &QueryStats = &outcome.stats;
    if s.failed_tasks != outcome.errors().len() {
        violations.push(Violation::new(
            "stats-failed-tasks",
            format!("{path}: failed_tasks {} != errors {}", s.failed_tasks, outcome.errors().len()),
        ));
    }
    if s.simulated > s.simulated_serial {
        violations.push(Violation::new(
            "stats-simulated",
            format!(
                "{path}: simulated {:?} exceeds the serial bound {:?}",
                s.simulated, s.simulated_serial
            ),
        ));
    }
    // Cache-account consistency: exactly one plan-cache lookup per
    // fresh (non-replayed) query, however many clients share the engine.
    if s.result_cache.hits == 0 {
        let plan_ops = s.plan_cache.hits + s.plan_cache.misses;
        if plan_ops != 1 {
            violations.push(Violation::new(
                "cache-delta",
                format!("{path}: plan cache hits+misses = {plan_ops}, expected 1"),
            ));
        }
    }
}

/// Result-cache replay semantics (what the replay answers is the
/// ground truth's).
fn check_replay(first: &QueryOutcome, second: &QueryOutcome, violations: &mut Vec<Violation>) {
    let complete = first.stats.failed_tasks == 0 && first.stats.completeness >= 1.0;
    if complete {
        if second.stats.result_cache.hits != 1 {
            violations.push(Violation::new(
                "replay-admission",
                format!(
                    "complete answer was not replayed (hits {})",
                    second.stats.result_cache.hits
                ),
            ));
            return;
        }
        if second.stats.round_trips != 0 || second.stats.simulated != SimDuration::ZERO {
            violations.push(Violation::new(
                "replay-zero-cost",
                format!(
                    "replay touched the wire: round_trips {} simulated {:?}",
                    second.stats.round_trips, second.stats.simulated
                ),
            ));
        }
        if second.stats.plan_cache.hits + second.stats.plan_cache.misses != 0 {
            violations.push(Violation::new(
                "replay-zero-cost",
                "replay consulted the plan cache".to_string(),
            ));
        }
    } else if second.stats.result_cache.hits != 0 {
        violations.push(Violation::new(
            "replay-admission",
            "degraded answer was admitted to the result cache".to_string(),
        ));
    }
}

/// Completeness monotonicity in failure probability, on the restricted
/// configuration where it is per-seed provable: batched (exactly one
/// logical call per endpoint per query), no failover, no breaker, so
/// the per-endpoint draw sequences stay aligned across probability
/// levels. At `p = 0` every endpoint answers, so the `flaky(0)` arm owes
/// the answer of the scenario with every fault but a hostile rule
/// removed. Also re-runs the top level as a determinism probe.
fn check_monotonicity(scenario: &Scenario) -> Vec<Violation> {
    let mut violations = Vec::new();
    let mut p = (scenario.seed % 80 + 10) as f64 / 100.0; // 0.10..=0.89
    if scenario.seed.is_multiple_of(8) {
        p = 1.0; // exercise the boundary
    }
    let levels = [0.0, p / 2.0, p];
    let run = |p: f64| -> QueryOutcome {
        scenario
            .build_with(&BuildConfig::batched(), Some(p))
            .with_resilience(ResiliencePolicy::none())
            .query(&scenario.query_text())
            .expect("query parsed")
    };
    let results: Vec<QueryOutcome> = levels.iter().map(|&p| run(p)).collect();
    for window in results.windows(2) {
        let (before, after) = (window[0].stats.completeness, window[1].stats.completeness);
        if after > before + 1e-12 {
            violations.push(Violation::new(
                "completeness-monotonicity",
                format!(
                    "completeness rose from {before} to {after} as failure probability increased \
                     (levels {levels:?})"
                ),
            ));
        }
    }
    let answering = Scenario {
        sources: scenario
            .sources
            .iter()
            .map(|s| match s.fault {
                FaultClass::HostileRule(_) => s.clone(),
                _ => SourceSpec { fault: FaultClass::Reliable, ..s.clone() },
            })
            .collect(),
        ..scenario.clone()
    };
    ground_truth("flaky(0)", &results[0], &answering.expected(), &mut violations);
    let again = run(p);
    if Answer::from(&again) != Answer::from(&results[2])
        || again.stats.round_trips != results[2].stats.round_trips
    {
        violations.push(Violation::new(
            "determinism",
            "two identically seeded flaky runs disagreed".to_string(),
        ));
    }
    violations
}

/// Overload honesty: admission control, deadline budgets, and hedged
/// dispatch may only *remove* answers, never invent or corrupt them.
///
/// * **shed** — with the single permit held by another tenant, a
///   budgeted query is refused at arrival: empty honest answer, zero
///   round trips, no cache writes; once the permit frees, the same
///   engine answers in full (arm `shed-recovery`).
/// * **deadline** — a seed-derived budget cuts the query off
///   mid-flight: the instances are a subset of the expected ones,
///   completeness is no higher than the unconstrained batched run's,
///   and a second identically configured run reproduces the first.
/// * **hedge** — racing replicas against stragglers answers what the
///   scenario expects (arm `hedged`), `hedge_wins ≤ hedges` always, and
///   a second run reproduces the first.
fn check_overload(
    scenario: &Scenario,
    expected: &Answer,
    baseline: &QueryOutcome,
) -> Vec<Violation> {
    let mut violations = Vec::new();
    let query = scenario.query_text();

    // --- Shed arm ----------------------------------------------------
    let engine = scenario.build(&BuildConfig::batched()).with_admission(
        AdmissionConfig::with_permits(1).with_service_estimate(SimDuration::from_millis(20)),
    );
    {
        let controller = engine.admission().expect("admission was just configured");
        let hog = controller.admit("hog", None).expect("first permit is free");
        let opts =
            QueryOptions::default().with_tenant("meek").with_deadline(SimDuration::from_millis(1));
        let shed = engine.query_with_options(&query, &opts).expect("shed still parses upstream");
        if !shed.stats.shed {
            violations.push(Violation::new(
                "overload-shed",
                "budgeted query was admitted past a saturated controller".to_string(),
            ));
        }
        if !shed.individuals().is_empty()
            || shed.stats.completeness != 0.0
            || shed.stats.round_trips != 0
        {
            violations.push(Violation::new(
                "overload-shed-honesty",
                format!(
                    "shed answer not honestly empty: {} individuals, completeness {}, \
                     round_trips {}",
                    shed.individuals().len(),
                    shed.stats.completeness,
                    shed.stats.round_trips
                ),
            ));
        }
        if shed.stats.plan_cache != Default::default() || engine.plan_cache_len() != 0 {
            violations.push(Violation::new(
                "overload-shed-cache",
                "shed query touched the plan cache".to_string(),
            ));
        }
        drop(hog);
    }
    let after = engine.query(&query).expect("parsed on the batched path");
    ground_truth("shed-recovery", &after, expected, &mut violations);

    // --- Deadline arm ------------------------------------------------
    let deadline = SimDuration::from_millis(scenario.seed % 120 + 5);
    let run_deadline = || -> QueryOutcome {
        let engine = scenario.build(&BuildConfig::batched());
        let opts = QueryOptions::default().with_deadline(deadline);
        engine.query_with_options(&query, &opts).expect("parsed on the batched path")
    };
    let cut = run_deadline();
    check_stats(&cut, "deadline", &mut violations);
    let cut_answer = Answer::from(&cut);
    if !cut_answer.individuals_within(expected) {
        violations.push(Violation::new(
            "overload-subset",
            format!("deadline-limited answer invented instances\n{cut_answer}expected\n{expected}"),
        ));
    }
    if cut.stats.completeness > baseline.stats.completeness + 1e-12 {
        violations.push(Violation::new(
            "overload-completeness",
            format!(
                "deadline budget {deadline} raised completeness from {} to {}",
                baseline.stats.completeness, cut.stats.completeness
            ),
        ));
    }
    let again = run_deadline();
    if Answer::from(&again) != cut_answer || again.sources != cut.sources {
        violations.push(Violation::new(
            "overload-determinism",
            format!(
                "two identically budgeted runs disagreed\n{:?}\n{:?}",
                cut.sources, again.sources
            ),
        ));
    }

    // --- Hedge arm ---------------------------------------------------
    let run_hedged = || -> QueryOutcome {
        let engine = scenario.build(&BuildConfig::batched()).with_resilience(
            ResiliencePolicy::default()
                .with_retry(RetryPolicy::attempts(crate::scenario::RETRY_ATTEMPTS))
                .with_hedging(HedgeConfig {
                    percentile: 50,
                    min_samples: 1,
                    min_delay: SimDuration::ZERO,
                }),
        );
        engine.query(&query).expect("parsed on the batched path")
    };
    let hedged = run_hedged();
    check_stats(&hedged, "hedged", &mut violations);
    ground_truth("hedged", &hedged, expected, &mut violations);
    if hedged.hedge_wins() > hedged.hedges() {
        violations.push(Violation::new(
            "overload-hedge-accounting",
            format!(
                "hedge_wins {} exceeds hedges launched {}",
                hedged.hedge_wins(),
                hedged.hedges()
            ),
        ));
    }
    let hedged_again = run_hedged();
    if Answer::from(&hedged_again) != Answer::from(&hedged)
        || hedged_again.sources != hedged.sources
    {
        violations.push(Violation::new(
            "overload-determinism",
            "two identically seeded hedged runs disagreed".to_string(),
        ));
    }

    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn healthy_scenarios_pass_every_oracle() {
        for seed in 0..12 {
            let scenario = Scenario::generate(seed);
            let violations = check_scenario(&scenario);
            assert!(violations.is_empty(), "seed {seed}: {violations:#?}");
        }
    }

    /// A filter must survive failover: the bound conjunct travels with
    /// the exchange, so the replica answers the filtered statement and
    /// the response stays filtered — the source must not silently fall
    /// back to full extraction when the primary endpoint dies.
    #[test]
    fn pushed_predicate_survives_replica_failover() {
        let scenario =
            crate::case::from_case(include_str!("../corpus/pushdown-replica-failover.case"))
                .expect("corpus case parses");
        let engine = || scenario.build(&BuildConfig::batched());
        let twin = engine().query("SELECT watch").unwrap();
        let filtered = engine().query(&scenario.query_text()).unwrap();
        assert_eq!(filtered.stats.completeness, 1.0, "replica rescues the outage");
        assert!(filtered.failovers() >= 1, "the primary endpoint is hard-down");
        assert!(
            filtered.sources.iter().any(|r| !r.pushed.is_empty()),
            "the price conjunct filters the SQL source"
        );
        assert_eq!(Answer::from(&filtered), scenario.expected());
        assert!(
            filtered.stats.wire_response_bytes < twin.stats.wire_response_bytes,
            "replica answered the filtered statement: {} vs {} response bytes",
            filtered.stats.wire_response_bytes,
            twin.stats.wire_response_bytes
        );
        let violations = check_scenario(&scenario);
        assert!(violations.is_empty(), "{violations:#?}");
    }

    /// A mapping edit must invalidate only the edited source's
    /// materialized slices: the other source's views keep replaying
    /// without touching the wire, and only the edited source is
    /// re-dialled. With the result cache on as well, the whole answer
    /// (it read the edited source) is recomputed once, then replayed.
    #[test]
    fn mapping_edit_invalidation_is_scoped_to_the_edited_source() {
        let scenario = crate::case::from_case(include_str!("../corpus/delta-mapping-edit.case"))
            .expect("corpus case parses");
        let query = scenario.query_text();
        for result_cache in [false, true] {
            let config = BuildConfig { result_cache, ..BuildConfig::delta() };
            let mut engine = scenario.build(&config);
            let first = engine.query(&query).unwrap();
            assert_eq!(first.stats.completeness, 1.0);
            let warm = engine.query(&query).unwrap();
            assert_eq!(warm.stats.round_trips, 0, "warm views answer without the wire");
            assert_eq!(warm.stats.result_cache.hits, u64::from(result_cache));
            // Re-register SRC_0's brand mapping under an equivalent rule
            // with different text — same values, different plan.
            engine
                .register_attribute(
                    "thing.product.watch.brand",
                    s2s_core::mapping::ExtractionRule::Sql {
                        query: "SELECT brand, price FROM watches ORDER BY id".into(),
                        column: "brand".into(),
                    },
                    "SRC_0",
                    s2s_core::mapping::RecordScenario::MultiRecord,
                )
                .expect("equivalent rule is valid");
            let after = engine.query(&query).unwrap();
            assert_eq!(
                Answer::from(&after),
                Answer::from(&first),
                "the equivalent rule must not change the answer"
            );
            assert_eq!(after.stats.result_cache.hits, 0, "an answer under the old rule served");
            let row = |id| after.source(id).expect("a row per source read");
            assert_eq!(row("SRC_0").attempts, 1, "edited source re-extracts");
            assert_eq!(
                (row("SRC_1").attempts, row("SRC_1").view_hits),
                (0, 3),
                "untouched source replays from its views"
            );
            assert_eq!(after.stats.round_trips, 1, "one batched exchange, edited source only");
            assert_eq!(after.stats.view_hits, 3, "the XML source's three slices replay");
            let again = engine.query(&query).unwrap();
            assert_eq!(again.stats.result_cache.hits, u64::from(result_cache));
            assert_eq!(Answer::from(&again), Answer::from(&first));
        }
        let violations = check_scenario(&scenario);
        assert!(violations.is_empty(), "{violations:#?}");
    }

    #[test]
    fn an_answer_is_build_stable_and_value_sensitive() {
        use crate::scenario::{SourceKindSpec, SourceSpec};
        let scenario = Scenario {
            seed: 3,
            rows: 3,
            sources: vec![SourceSpec {
                kind: SourceKindSpec::Db,
                single_record: false,
                fault: FaultClass::Reliable,
            }],
            conditions: Vec::new(),
            spelled: false,
        };
        let answer = |query: &str| {
            Answer::from(&scenario.build(&BuildConfig::batched()).query(query).unwrap())
        };
        let a = answer(&scenario.query_text());
        assert_eq!(a, answer(&scenario.query_text()), "identical builds answer identically");
        assert_eq!(a.individuals.len(), 3);
        assert_ne!(a, answer("SELECT watch WHERE price < 0"), "different answers differ");
    }
}
