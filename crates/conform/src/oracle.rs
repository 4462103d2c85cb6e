//! Differential and invariant oracles.
//!
//! [`check_scenario`] runs one generated scenario through every
//! execution path and returns the list of violated oracles (empty on a
//! healthy scenario). The oracles formalize the promises scattered
//! through the engine's docs:
//!
//! * **Path equality** — batched (asked `ATTRS.len()` times on one
//!   engine, so scheduled faults at later call indices fire too),
//!   result-cached and pooled N-thread execution agree on the instance
//!   set (modulo ordering) and on the failed-attribute set.
//! * **Stats conservation** — `failed_tasks` counts the reported
//!   errors, the makespan stays under the serial bound, and cache deltas
//!   are consistent with what the query actually did. (Every per-source
//!   total is one fold of the query's ledger rows, so `round_trips ==
//!   Σ attempts` and `completeness == answered/tasks` hold by
//!   construction.)
//! * **Zero-fault completeness** — a fault-free scenario answers at
//!   completeness 1 with no retries, no failovers, and exactly one
//!   wire exchange per source.
//! * **Replay** — a complete first answer is replayed from the result
//!   cache byte-for-byte with zero round trips and zero simulated
//!   time; a degraded answer is never admitted.
//! * **Metamorphic relations** — see [`crate::meta`].
//! * **Monotonicity** — on a restricted probabilistic configuration
//!   (batched, no retry/failover, one call per endpoint per query),
//!   completeness is non-increasing in the failure probability.
//! * **Overload honesty** — under admission control, deadline
//!   budgets, and hedged dispatch, every returned instance also
//!   appears in the unconstrained answer, completeness stays
//!   consistent with what was shed or cut off, shed queries touch
//!   neither the wire nor the caches, and a fixed seed reproduces the
//!   degraded run exactly.
//! * **Pushdown equivalence** — the federated planner (predicate and
//!   projection pushdown plus source pruning) answers byte-for-byte
//!   like the post-filter path, never inflates `wire_response_bytes`, never dials a
//!   pruned source, and reproduces deterministically.
//! * **Delta maintenance** — on fault-free scenarios, materialized
//!   semantic views fed by the source change feeds answer
//!   fingerprint-identical to a from-scratch recompute after every
//!   fuzzed mutation round, replay unmutated repeat queries without
//!   touching the wire, account every warm slice as a hit, refresh,
//!   or full refresh, and reproduce deterministically — over views
//!   alone and with the pushdown planner on.
//! * **Bootstrap equivalence** — on fault-free scenarios, an engine
//!   whose mappings come entirely from the automatic schema bootstrap
//!   (`S2s::bootstrap_source` + `apply_bootstrap`, with the catalog's
//!   two genuine operator interventions) answers fingerprint-identical
//!   to the hand-written registration, covers every attribute of every
//!   source, and re-bootstraps to byte-identical candidate sets.

use std::collections::BTreeSet;
use std::sync::Arc;

use s2s_core::extract::{ResiliencePolicy, Strategy};
use s2s_core::middleware::{QueryOutcome, QueryStats};
use s2s_core::{QueryOptions, S2s};
use s2s_netsim::{AdmissionConfig, HedgeConfig, RetryPolicy, SimDuration};

use crate::meta;
use crate::scenario::{BuildConfig, Scenario};

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

/// Order-independent fingerprint of a query outcome: the sorted
/// per-individual value maps plus the sorted failed `(source, attr)`
/// set. Two outcomes with equal fingerprints are the same answer.
pub fn fingerprint(outcome: &QueryOutcome) -> String {
    let mut individuals: Vec<String> =
        outcome.individuals().iter().map(|i| format!("{}|{:?}", i.source, i.values)).collect();
    individuals.sort();
    let mut failures: Vec<String> =
        outcome.errors().iter().map(|e| format!("!{}|{}", e.source, e.attribute)).collect();
    failures.sort();
    individuals.extend(failures);
    individuals.join("\n")
}

/// Runs every oracle over `scenario`; returns the violations found.
pub fn check_scenario(scenario: &Scenario) -> Vec<Violation> {
    let mut violations = Vec::new();
    let query = scenario.query_text();
    let n_sources = scenario.sources.len();
    let n_schemas = n_sources * crate::scenario::ATTRS.len();

    // --- The three execution paths ----------------------------------
    // The reference engine is asked once per attribute: each repeat
    // advances every endpoint's call index, so faults scheduled past the
    // first exchange fire too, and every answer must equal the first.
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
        (1..crate::scenario::ATTRS.len())
            .map(|_| batched.query(&query).expect("parsed on the batched path")),
    );
    for (r, outcome) in batched_runs.iter().enumerate() {
        check_stats(outcome, &format!("batched-r{r}"), &mut violations);
    }
    let batched_outcome = &batched_runs[0];

    let replay_engine = scenario.build(&BuildConfig::replay());
    let replay_first = replay_engine.query(&query).expect("parsed on the batched path");
    check_stats(&replay_first, "replay-first", &mut violations);
    let replay_second = replay_engine.query(&query).expect("parsed on the batched path");
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
    }

    // --- Cross-path equality ----------------------------------------
    let reference = fingerprint(batched_outcome);
    let others = batched_runs
        .iter()
        .enumerate()
        .skip(1)
        .map(|(r, o)| (format!("batched-r{r}"), o))
        .chain(std::iter::once(("replay-first".to_string(), &replay_first)))
        .chain(pooled_outcomes.iter().enumerate().map(|(t, o)| (format!("pooled-t{t}"), o)));
    for (path, outcome) in others {
        if fingerprint(outcome) != reference {
            violations.push(Violation::new(
                "path-equality",
                format!(
                    "{path} diverged from batched\nbatched:\n{reference}\n{path}:\n{}",
                    fingerprint(outcome)
                ),
            ));
        }
        if (outcome.stats.completeness - batched_outcome.stats.completeness).abs() > 1e-12 {
            violations.push(Violation::new(
                "path-completeness",
                format!(
                    "{path} completeness {} != batched {}",
                    outcome.stats.completeness, batched_outcome.stats.completeness
                ),
            ));
        }
    }

    // --- Zero-fault obligations -------------------------------------
    for (r, outcome) in batched_runs.iter().enumerate() {
        let (path, s) = (format!("batched-r{r}"), &outcome.stats);
        if scenario.fault_free() {
            if s.completeness != 1.0 || s.failed_tasks != 0 {
                violations.push(Violation::new(
                    "zero-fault-completeness",
                    format!(
                        "{path}: completeness {} failed_tasks {} on a fault-free scenario",
                        s.completeness, s.failed_tasks
                    ),
                ));
            }
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
        } else if !scenario.has_hard_outage() && s.completeness != 1.0 {
            // Rescued faults (replica failover or scheduled transients
            // within the retry budget) must still answer completely.
            violations.push(Violation::new(
                "rescued-fault-completeness",
                format!("{path}: completeness {} though every fault is rescuable", s.completeness),
            ));
        }
        if s.tasks != n_schemas {
            violations.push(Violation::new(
                "task-conservation",
                format!("{path}: tasks {} != schemas {n_schemas}", s.tasks),
            ));
        }
    }

    // --- Metamorphic relations --------------------------------------
    violations.extend(meta::check_metamorphic(scenario, &reference));

    // --- Probabilistic probes (heavier; run on a slice) -------------
    if scenario.seed.is_multiple_of(4) {
        violations.extend(check_monotonicity(scenario));
    }

    // --- Overload honesty -------------------------------------------
    violations.extend(check_overload(scenario, batched_outcome));

    // --- Pushdown equivalence ---------------------------------------
    violations.extend(check_pushdown(scenario, batched_outcome));

    // --- Delta maintenance ------------------------------------------
    violations.extend(check_delta(scenario, batched_outcome));

    // --- Bootstrap equivalence --------------------------------------
    violations.extend(check_bootstrap(scenario, batched_outcome));

    violations
}

/// Delta maintenance: materialized semantic views answering out of the
/// source change feeds must be indistinguishable from recompute.
///
/// Gated to fault-free scenarios: a mutation changes how many wire
/// calls each query issues, which would desync call-indexed fault
/// schedules between the delta engine and the rebuilt reference.
///
/// The protocol runs one engine through a cold query, a warm repeat,
/// and three mutation rounds. Rounds alternate between price-only
/// mutations that honestly declare `fields = ["price"]` (exercising
/// the untouched-slice fast path) and whole-catalog mutations that
/// declare nothing (the conservative touches-everything path). Four
/// invariants:
///
/// * **equality** — the cold delta answer matches the batched path;
/// * **view replay** — the unmutated repeat is served entirely from
///   views, with zero round trips;
/// * **divergence-freedom** — after every mutation round the delta
///   answer fingerprints identically to a freshly built engine over
///   the mutated catalog;
/// * **accounting + determinism** — every warm slice is accounted as
///   hit, refresh, or full refresh, and a second protocol run
///   reproduces the first exactly.
///
/// The protocol runs twice: over views alone (oracles `delta-*`), and
/// with the pushdown planner on as well (`delta-pushdown-*`), where a
/// slice's rule filters on the query's conditions — a price round must
/// refresh every slice whose pushed rule tests the price.
fn check_delta(scenario: &Scenario, baseline: &QueryOutcome) -> Vec<Violation> {
    if !scenario.fault_free() {
        return Vec::new();
    }
    let pushdown = BuildConfig { pushdown: true, ..BuildConfig::delta() };
    [("delta", BuildConfig::delta()), ("delta-pushdown", pushdown)]
        .iter()
        .flat_map(|(arm, config)| check_delta_arm(scenario, baseline, arm, config))
        .collect()
}

fn check_delta_arm(
    scenario: &Scenario,
    baseline: &QueryOutcome,
    arm: &str,
    config: &BuildConfig,
) -> Vec<Violation> {
    let mut violations = Vec::new();
    let oracle = |name: &str| format!("{arm}-{name}");
    let query = scenario.query_text();
    let n_schemas = (scenario.sources.len() * crate::scenario::ATTRS.len()) as u64;

    // (fingerprint, stats) per protocol round.
    let run_protocol = || -> Vec<(String, QueryStats)> {
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
            trace.push((fingerprint(&outcome), outcome.stats));
        }
        trace
    };

    let trace = run_protocol();
    if trace[0].0 != fingerprint(baseline) {
        violations.push(Violation::new(
            &oracle("equality"),
            format!(
                "cold delta answer diverged from batched\nbatched:\n{}\ndelta:\n{}",
                fingerprint(baseline),
                trace[0].0
            ),
        ));
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
    for (round, (_, s)) in trace.iter().enumerate().skip(1) {
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

    let mut records = scenario.records();
    for (round, entry) in trace.iter().enumerate().take(5).skip(2) {
        mutate_catalog(&mut records, round);
        let reference =
            rebuilt_engine(scenario, &records).query(&query).expect("parsed on the batched path");
        if entry.0 != fingerprint(&reference) {
            violations.push(Violation::new(
                &oracle("divergence"),
                format!(
                    "delta answer after mutation round {round} diverged from recompute\n\
                     recompute:\n{}\ndelta:\n{}",
                    fingerprint(&reference),
                    entry.0
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

/// Advances the catalog one mutation round: every price moves; the
/// declare-nothing rounds (odd) additionally rotate every brand, so the
/// mutation really is confined to the declared fields on even rounds.
fn mutate_catalog(records: &mut [crate::scenario::Record], round: usize) {
    for r in records.iter_mut() {
        r.price += 7 * (round as i64 + 1);
        if round % 2 == 1 {
            let i = crate::scenario::BRANDS.iter().position(|&b| b == r.brand).unwrap_or(0);
            r.brand = crate::scenario::BRANDS[(i + 1) % crate::scenario::BRANDS.len()].to_string();
        }
    }
}

/// A fresh batched engine over an explicit (mutated) catalog — the
/// recompute reference the delta engine is compared against.
fn rebuilt_engine(scenario: &Scenario, records: &[crate::scenario::Record]) -> S2s {
    use s2s_core::source::Connection;
    use s2s_netsim::{CostModel, FailureModel, FaultSchedule};

    let mut s2s = S2s::new(crate::scenario::ontology())
        .with_strategy(Strategy::Parallel { workers: 1 })
        .with_resilience(
            ResiliencePolicy::default()
                .with_retry(RetryPolicy::attempts(crate::scenario::RETRY_ATTEMPTS)),
        );
    for (i, spec) in scenario.sources.iter().enumerate() {
        let id = format!("SRC_{i}");
        let connection: Connection = crate::scenario::connection_for(spec.kind, records);
        s2s.register_remote_source_detailed(
            &id,
            connection,
            CostModel::wan(),
            FailureModel::reliable(),
            Some(scenario.endpoint_seed(i)),
            FaultSchedule::new(),
        )
        .expect("fresh id");
        let record_scenario = if spec.single_record {
            s2s_core::mapping::RecordScenario::SingleRecord
        } else {
            s2s_core::mapping::RecordScenario::MultiRecord
        };
        for a in 0..crate::scenario::ATTRS.len() {
            s2s.register_attribute(
                &format!("thing.product.watch.{}", crate::scenario::ATTRS[a]),
                spec.rule(a),
                &id,
                record_scenario,
            )
            .expect("valid by construction");
        }
    }
    s2s
}

/// Bootstrap equivalence: auto-generated mappings must be
/// indistinguishable from the hand-written ones.
///
/// Gated to fault-free scenarios (bootstrap introspection does not
/// touch the wire, but the comparison query does, and fault schedules
/// are call-indexed). The protocol builds a twin engine whose sources
/// are registered exactly like the scenario's, but whose mappings come
/// entirely from `S2s::bootstrap_source` + `apply_bootstrap` — with
/// the two operator interventions the conform catalog genuinely needs:
/// the bare `<b>`/`<i>` web tags carry no name signal and surface as
/// ambiguous-target conflicts (resolved to brand/case), and
/// single-record sources override the shape-implied multi-record
/// scenario. Three invariants:
///
/// * **coverage** — every source bootstraps exactly one accepted,
///   applied candidate per attribute, with no unexpected leftovers;
/// * **equality** — the bootstrapped engine's answer fingerprints
///   identically to the hand-written batched path;
/// * **determinism** — a second bootstrap run produces byte-identical
///   candidate sets (field, path, rule, scenario, confidence) and the
///   same answer.
fn check_bootstrap(scenario: &Scenario, baseline: &QueryOutcome) -> Vec<Violation> {
    use s2s_core::mapping::RecordScenario;
    use s2s_netsim::RetryPolicy as Retry;

    let mut violations = Vec::new();
    if !scenario.fault_free() {
        return violations;
    }
    let query = scenario.query_text();
    let records = scenario.records();

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
        let mut s2s = S2s::new(crate::scenario::ontology())
            .with_strategy(Strategy::Parallel { workers: 1 })
            .with_resilience(
                ResiliencePolicy::default()
                    .with_retry(Retry::attempts(crate::scenario::RETRY_ATTEMPTS)),
            );
        let mut signatures = Vec::new();
        for (i, spec) in scenario.sources.iter().enumerate() {
            scenario.register_source(&mut s2s, i, &records);
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
            if spec.single_record {
                report.override_scenario(RecordScenario::SingleRecord);
            }
            s2s.apply_bootstrap(&mut report).map_err(|e| format!("{id}: {e}"))?;
            let applied = report.candidates.iter().filter(|c| c.applied).count();
            if applied != crate::scenario::ATTRS.len() {
                return Err(format!(
                    "{id} ({:?}): {applied} mappings bootstrapped, want {}",
                    spec.kind,
                    crate::scenario::ATTRS.len()
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
    if fingerprint(&outcome) != fingerprint(baseline) {
        violations.push(Violation::new(
            "bootstrap-equality",
            format!(
                "bootstrapped answer diverged from hand-written\nhand-written:\n{}\nbootstrapped:\n{}",
                fingerprint(baseline),
                fingerprint(&outcome)
            ),
        ));
    }

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
    if fingerprint(&outcome2) != fingerprint(&outcome) {
        violations.push(Violation::new(
            "bootstrap-determinism",
            "re-bootstrapped engine answered differently".to_string(),
        ));
    }
    violations
}

/// Pushdown equivalence: the federated planner may rewrite rules,
/// prune sources, and shrink responses, but never change the answer.
///
/// Four invariants, each against the unconstrained batched path:
///
/// * **equality** — pushdown-on fingerprints and completeness match
///   pushdown-off exactly; the residual filter
///   guarantees any record a pushed predicate drops would have been
///   dropped post-extraction anyway.
/// * **wire monotonicity** — pushed responses are subsets of the full
///   responses, so `wire_response_bytes` never exceeds the
///   post-filter path's.
/// * **pruned silence** — a pruned source's ledger row shows no task,
///   no pushed conjunct, no attempt and no byte (it was never dialled).
/// * **determinism** — two identically seeded pushdown runs keep equal
///   ledgers.
///
/// A decoy variant adds a reliable DB source that maps only `brand`:
/// any condition on `price` or `case` must prune it, and pruning must
/// not change the answer.
fn check_pushdown(scenario: &Scenario, baseline: &QueryOutcome) -> Vec<Violation> {
    let mut violations = Vec::new();
    let query = scenario.query_text();
    let full_fp = fingerprint(baseline);

    let pushed =
        scenario.build(&BuildConfig::pushdown()).query(&query).expect("parsed on the batched path");
    check_stats(&pushed, "pushdown", &mut violations);
    if fingerprint(&pushed) != full_fp {
        violations.push(Violation::new(
            "pushdown-equality",
            format!(
                "pushdown changed the answer\nfull:\n{full_fp}\npushed:\n{}",
                fingerprint(&pushed)
            ),
        ));
    }
    if (pushed.stats.completeness - baseline.stats.completeness).abs() > 1e-12 {
        violations.push(Violation::new(
            "pushdown-equality",
            format!(
                "pushdown completeness {} != batched {}",
                pushed.stats.completeness, baseline.stats.completeness
            ),
        ));
    }
    if pushed.stats.wire_response_bytes > baseline.stats.wire_response_bytes {
        violations.push(Violation::new(
            "pushdown-wire-monotonicity",
            format!(
                "pushed responses grew: {} bytes vs post-filter {}",
                pushed.stats.wire_response_bytes, baseline.stats.wire_response_bytes
            ),
        ));
    }
    check_pruned_rows(&pushed, &mut violations);

    let again =
        scenario.build(&BuildConfig::pushdown()).query(&query).expect("parsed on the batched path");
    if again.sources != pushed.sources {
        violations.push(Violation::new(
            "pushdown-determinism",
            "two identically seeded pushdown runs kept different ledgers".to_string(),
        ));
    }

    // --- Decoy pruning arm -------------------------------------------
    if !scenario.conditions.is_empty() {
        let on = decoy_engine(scenario, true).query(&query).expect("parsed on the batched path");
        let off = decoy_engine(scenario, false).query(&query).expect("parsed on the batched path");
        if fingerprint(&on) != fingerprint(&off) {
            violations.push(Violation::new(
                "pushdown-prune-equality",
                format!(
                    "pruning changed the answer\noff:\n{}\non:\n{}",
                    fingerprint(&off),
                    fingerprint(&on)
                ),
            ));
        }
        let constrains_beyond_brand = scenario.conditions.iter().any(|c| c.attr != 0);
        let pruned_decoy = on.source("DECOY").is_some_and(|r| r.pruned);
        if constrains_beyond_brand && !pruned_decoy {
            violations.push(Violation::new(
                "pushdown-prune",
                "decoy source mapping only `brand` was not pruned though the query \
                 constrains another attribute"
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

/// A deployment variant with one extra reliable DB source (`DECOY`)
/// that maps only `brand` — prunable whenever the query constrains
/// `price` or `case`, and a harmless extra contributor otherwise.
fn decoy_engine(scenario: &Scenario, pushdown: bool) -> S2s {
    use s2s_core::source::Connection;
    use s2s_netsim::{CostModel, FailureModel, FaultSchedule};

    let config = if pushdown { BuildConfig::pushdown() } else { BuildConfig::batched() };
    let mut s2s = scenario.build(&config);
    let records = scenario.records();
    let connection: Connection =
        crate::scenario::connection_for(crate::scenario::SourceKindSpec::Db, &records);
    s2s.register_remote_source_detailed(
        "DECOY",
        connection,
        CostModel::wan(),
        FailureModel::reliable(),
        Some(scenario.endpoint_seed(scenario.sources.len())),
        FaultSchedule::new(),
    )
    .expect("fresh id");
    s2s.register_attribute(
        "thing.product.watch.brand",
        crate::scenario::rule_for(crate::scenario::SourceKindSpec::Db, 0),
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

/// Result-cache replay semantics.
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
        if fingerprint(second) != fingerprint(first) {
            violations.push(Violation::new(
                "replay-equality",
                format!(
                    "replayed answer differs\nfirst:\n{}\nsecond:\n{}",
                    fingerprint(first),
                    fingerprint(second)
                ),
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
/// levels. Also re-runs the base level twice as a determinism probe.
fn check_monotonicity(scenario: &Scenario) -> Vec<Violation> {
    let mut violations = Vec::new();
    let mut p = (scenario.seed % 80 + 10) as f64 / 100.0; // 0.10..=0.89
    if scenario.seed.is_multiple_of(8) {
        p = 1.0; // exercise the boundary
    }
    let levels = [0.0, p / 2.0, p];
    let run = |p: f64| -> (String, f64, QueryStats) {
        let engine = flaky_engine(scenario, p);
        let outcome = engine.query(&scenario.query_text()).expect("query parsed");
        (fingerprint(&outcome), outcome.stats.completeness, outcome.stats)
    };
    let results: Vec<(String, f64, QueryStats)> = levels.iter().map(|&p| run(p)).collect();
    for window in results.windows(2) {
        if window[1].1 > window[0].1 + 1e-12 {
            violations.push(Violation::new(
                "completeness-monotonicity",
                format!(
                    "completeness rose from {} to {} as failure probability increased \
                     (levels {levels:?})",
                    window[0].1, window[1].1
                ),
            ));
        }
    }
    if results[0].1 != 1.0 {
        violations.push(Violation::new(
            "zero-fault-completeness",
            format!("flaky(0) probe degraded: completeness {}", results[0].1),
        ));
    }
    let (again_fp, _, again_stats) = run(p);
    if again_fp != results[2].0 || again_stats.round_trips != results[2].2.round_trips {
        violations.push(Violation::new(
            "determinism",
            "two identically seeded flaky runs disagreed".to_string(),
        ));
    }
    violations
}

/// The sorted per-individual value lines of an answer, without the
/// failure set — the unit of the overload subset comparison.
fn instance_lines(outcome: &QueryOutcome) -> BTreeSet<String> {
    outcome.individuals().iter().map(|i| format!("{}|{:?}", i.source, i.values)).collect()
}

/// Overload honesty: admission control, deadline budgets, and hedged
/// dispatch may only *remove* answers, never invent or corrupt them.
///
/// Three arms, each compared against the unconstrained batched answer:
///
/// * **shed** — with the single permit held by another tenant, a
///   budgeted query is refused at arrival: empty honest answer, zero
///   round trips, no cache writes; once the permit frees, the same
///   engine answers in full.
/// * **deadline** — a seed-derived budget cuts the query off
///   mid-flight: the instances are a subset of the full answer,
///   completeness is consistent (and no higher than unconstrained),
///   and a second identically configured run reproduces the first.
/// * **hedge** — racing replicas against stragglers must not change
///   the answer at all, and `hedge_wins ≤ hedges` always.
fn check_overload(scenario: &Scenario, baseline: &QueryOutcome) -> Vec<Violation> {
    let mut violations = Vec::new();
    let query = scenario.query_text();
    let full = instance_lines(baseline);
    let full_fp = fingerprint(baseline);

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
    if fingerprint(&after) != full_fp {
        violations.push(Violation::new(
            "overload-shed-recovery",
            format!(
                "answer after shedding diverged from unconstrained\nfull:\n{full_fp}\n\
                 after:\n{}",
                fingerprint(&after)
            ),
        ));
    }

    // --- Deadline arm ------------------------------------------------
    let deadline = SimDuration::from_millis(scenario.seed % 120 + 5);
    let run_deadline = || -> QueryOutcome {
        let engine = scenario.build(&BuildConfig::batched());
        let opts = QueryOptions::default().with_deadline(deadline);
        engine.query_with_options(&query, &opts).expect("parsed on the batched path")
    };
    let cut = run_deadline();
    check_stats(&cut, "deadline", &mut violations);
    if !instance_lines(&cut).is_subset(&full) {
        violations.push(Violation::new(
            "overload-subset",
            format!(
                "deadline-limited answer invented instances\nfull:\n{full_fp}\ncut:\n{}",
                fingerprint(&cut)
            ),
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
    if fingerprint(&again) != fingerprint(&cut) || again.sources != cut.sources {
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
    if fingerprint(&hedged) != full_fp {
        violations.push(Violation::new(
            "overload-hedge-equality",
            format!(
                "hedging changed the answer\nfull:\n{full_fp}\nhedged:\n{}",
                fingerprint(&hedged)
            ),
        ));
    }
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
    if fingerprint(&hedged_again) != fingerprint(&hedged) || hedged_again.sources != hedged.sources
    {
        violations.push(Violation::new(
            "overload-determinism",
            "two identically seeded hedged runs disagreed".to_string(),
        ));
    }

    violations
}

/// A deployment variant where every source is `flaky(p)` behind the
/// scenario's endpoint seeds, under a no-retry/no-failover policy.
fn flaky_engine(scenario: &Scenario, p: f64) -> S2s {
    use s2s_core::source::Connection;
    use s2s_netsim::{CostModel, FailureModel, FaultSchedule};

    let records = scenario.records();
    let mut s2s = S2s::new(crate::scenario::ontology())
        .with_strategy(Strategy::Parallel { workers: 1 })
        .with_resilience(ResiliencePolicy::none());
    for i in 0..scenario.sources.len() {
        let id = format!("SRC_{i}");
        let connection: Connection =
            crate::scenario::connection_for(scenario.sources[i].kind, &records);
        s2s.register_remote_source_detailed(
            &id,
            connection,
            CostModel::wan(),
            FailureModel::flaky(p),
            Some(scenario.endpoint_seed(i)),
            FaultSchedule::new(),
        )
        .expect("fresh id");
        let spec = &scenario.sources[i];
        let record_scenario = if spec.single_record {
            s2s_core::mapping::RecordScenario::SingleRecord
        } else {
            s2s_core::mapping::RecordScenario::MultiRecord
        };
        for a in 0..crate::scenario::ATTRS.len() {
            s2s.register_attribute(
                &format!("thing.product.watch.{}", crate::scenario::ATTRS[a]),
                spec.rule(a),
                &id,
                record_scenario,
            )
            .expect("valid by construction");
        }
    }
    s2s
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

    /// A pushed predicate must survive failover: the rule rewrite
    /// happens before the wire, so the replica serves the same
    /// rewritten SQL and the response stays filtered — pushdown must
    /// not silently fall back to full extraction when the primary
    /// endpoint dies.
    #[test]
    fn pushed_predicate_survives_replica_failover() {
        let scenario =
            crate::case::from_case(include_str!("../corpus/pushdown-replica-failover.case"))
                .expect("corpus case parses");
        let query = scenario.query_text();
        let baseline = scenario.build(&BuildConfig::batched()).query(&query).unwrap();
        let pushed = scenario.build(&BuildConfig::pushdown()).query(&query).unwrap();
        assert_eq!(pushed.stats.completeness, 1.0, "replica rescues the outage");
        assert!(pushed.failovers() >= 1, "the primary endpoint is hard-down");
        assert!(
            pushed.sources.iter().any(|r| !r.pushed.is_empty()),
            "the price predicate is pushable into SQL"
        );
        assert_eq!(fingerprint(&pushed), fingerprint(&baseline));
        assert!(
            pushed.stats.wire_response_bytes < baseline.stats.wire_response_bytes,
            "replica answered the rewritten (filtered) rule: {} vs {} response bytes",
            pushed.stats.wire_response_bytes,
            baseline.stats.wire_response_bytes
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
                fingerprint(&after),
                fingerprint(&first),
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
            assert_eq!(fingerprint(&again), fingerprint(&first));
        }
        let violations = check_scenario(&scenario);
        assert!(violations.is_empty(), "{violations:#?}");
    }

    #[test]
    fn fingerprint_is_build_stable_and_value_sensitive() {
        use crate::scenario::{FaultClass, SourceKindSpec, SourceSpec};
        let scenario = Scenario {
            seed: 3,
            rows: 3,
            sources: vec![SourceSpec {
                kind: SourceKindSpec::Db,
                single_record: false,
                fault: FaultClass::Reliable,
            }],
            conditions: Vec::new(),
        };
        let a = scenario.build(&BuildConfig::batched());
        let b = scenario.build(&BuildConfig::batched());
        let fp_a = fingerprint(&a.query(&scenario.query_text()).unwrap());
        let fp_b = fingerprint(&b.query(&scenario.query_text()).unwrap());
        assert_eq!(fp_a, fp_b, "identical builds must fingerprint identically");
        assert!(!fp_a.is_empty());
        let c = scenario.build(&BuildConfig::batched());
        let other = fingerprint(&c.query("SELECT watch WHERE price < 0").unwrap());
        assert_ne!(fp_a, other, "different answers must fingerprint differently");
    }
}
