//! Oracles: every answer against the ground truth, plus the invariants
//! that are not answer equality.
//!
//! [`check_scenario`] runs one generated scenario through every way of
//! running the engine (an *arm*) and returns the violated oracles (empty
//! on a healthy scenario). The arms are one table (`arms`); a row
//! names an engine builder, a query text, the answer it owes, how many
//! calls it makes on its engine and the oracle that fires when an engine
//! built again answers any call otherwise or keeps another ledger (its
//! determinism). One loop runs the rows and checks every answer with one
//! oracle, `ground-truth`, against [`Scenario::expected`], the arm named
//! in the detail.
//!
//! An answer is read as a client receives it ([`Reader`]): rendered in
//! N-Triples, Turtle or RDF/XML (the seed and the row choose which) and
//! parsed back. An individual's line names its source segment and
//! record from its IRI, so identity is compared too (a filtered source
//! keeps its records' numbers), and each value by lexical form and
//! datatype. The plain XML and text renderings of the first batched
//! answer must be well-formed and name the same subjects
//! (`render-shape`).
//!
//! The other checks are not answer equality:
//!
//! * **Stats** — on every call of every row: `failed_tasks` counts the
//!   reported errors, the makespan stays under the serial bound, a fresh
//!   query makes one plan-cache lookup and a pruned source is never
//!   dialled. A batched run has one task per schema, and a fault-free
//!   one makes no retry, no failover and one exchange per source.
//! * **Replay** — a complete first answer is replayed from the result
//!   cache with zero round trips, zero simulated time and no plan-cache
//!   lookup; a degraded one is never admitted.
//! * **Overload** — a shed query is refused at arrival with an honestly
//!   empty answer and touches neither the wire nor the caches; a
//!   deadline never raises completeness; `hedge_wins ≤ hedges`.
//! * **Pushdown** — filtered responses never outgrow the unfiltered
//!   twin's, and the decoy is pruned whenever the condition requires
//!   `price` or `case`.
//! * **Views** — an unmutated repeat is served from views without the
//!   wire, and every warm slice is a hit, refresh or full refresh.
//! * **Bootstrap coverage** — every source bootstraps one applied
//!   mapping per attribute, and a second bootstrap the same candidates.
//! * **Monotonicity** — on `flaky(p)` endpoints without retry or
//!   failover, completeness is non-increasing in `p`.

use std::cell::RefCell;

use s2s_core::extract::ResiliencePolicy;
use s2s_core::instance::OutputFormat;
use s2s_core::middleware::QueryOutcome;
use s2s_core::{QueryOptions, S2s};
use s2s_netsim::{AdmissionConfig, HedgeConfig, RetryPolicy, SimDuration};
use s2s_owl::Ontology;
use s2s_rdf::vocab::{rdf, xsd};
use s2s_rdf::{ntriples, rdfxml, turtle, Literal, Term};

use crate::expected::{literal, Answer};
use crate::meta;
use crate::scenario::{change_kind_for, connection_for, ATTRS, RETRY_ATTEMPTS};
use crate::scenario::{ontology, BuildConfig, Cond, FaultClass, Record, Scenario, SourceSpec};

/// One violated oracle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which oracle fired (stable, kebab-case).
    pub oracle: String,
    /// Human-readable detail.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.oracle, self.detail)
    }
}

/// Where the violated oracles are recorded.
pub(crate) trait Checks {
    /// Records `oracle` as violated unless `holds`; `detail` says how.
    fn check(&mut self, holds: bool, oracle: &str, detail: impl FnOnce() -> String);
}

impl Checks for Vec<Violation> {
    fn check(&mut self, holds: bool, oracle: &str, detail: impl FnOnce() -> String) {
        if !holds {
            self.push(Violation { oracle: oracle.into(), detail: detail() });
        }
    }
}

/// The IRI prefix the scenario ontology's individuals are minted under,
/// followed by `{source segment}/{record}`.
const RECORDS: &str = "http://conform.example/schema/data/watch/";

/// The formats an answer is read back from.
const FORMATS: [OutputFormat; 3] =
    [OutputFormat::NTriples, OutputFormat::Turtle, OutputFormat::OwlRdfXml];

/// Reads an answer as a client receives it: rendered in one of the
/// three RDF formats and parsed back (`read_graph`).
pub struct Reader {
    ontology: Ontology,
    seed: u64,
}

impl Reader {
    /// The reader of scenario `seed`'s answers.
    pub fn new(seed: u64) -> Reader {
        Reader { ontology: ontology(), seed }
    }

    /// The answer `outcome` gives rendered in the `n`-th format after the
    /// seed's; the failed pairs are its errors.
    pub fn read(&self, outcome: &QueryOutcome, n: usize) -> Answer {
        let format = FORMATS[((self.seed % 3) as usize + n) % 3];
        let failed = outcome.errors().iter().map(|e| (e.source.clone(), e.attribute.clone()));
        read_graph(&outcome.render(&self.ontology, format), format, failed)
    }
}

/// The answer a rendered graph states: one line per subject, its source
/// segment and record read from its IRI ([`RECORDS`]), and per triple
/// but `rdf:type` the property's local name and the object's lexical
/// form and datatype. A text that does not parse reads as one line
/// naming the error.
fn read_graph(
    text: &str,
    format: OutputFormat,
    failed: impl IntoIterator<Item = (String, String)>,
) -> Answer {
    let parsed = match format {
        OutputFormat::NTriples => ntriples::parse(text),
        OutputFormat::Turtle => turtle::parse(text),
        _ => rdfxml::parse(text),
    };
    let graph = match parsed {
        Ok(graph) => graph,
        Err(e) => return Answer::new(vec![format!("{format:?} does not parse: {e}")], failed),
    };
    let datatype = |l: &Literal| match (l.language(), l.datatype().as_str()) {
        (Some(tag), _) => format!("@{tag}"),
        (None, xsd::STRING) => String::new(),
        (None, datatype) => format!("^^{}", datatype.replace(xsd::NS, "xsd:")),
    };
    let mut individuals = Vec::new();
    let mut triples = graph.iter().peekable();
    while let Some(subject) = triples.peek().map(|t| t.subject().clone()) {
        let mut values = Vec::new();
        while let Some(t) = triples.next_if(|t| *t.subject() == subject) {
            let property = t.predicate().local_name();
            match t.object() {
                _ if t.predicate().as_str() == rdf::TYPE => {}
                Term::Literal(l) => values.push((property, l.lexical().to_string(), datatype(l))),
                other => values.push((property, other.to_string(), String::new())),
            }
        }
        let subject = subject.to_string();
        let (segment, record) = subject_key(&subject).unwrap_or((&subject, ""));
        individuals.push(Answer::line(segment, record, values));
    }
    Answer::new(individuals, failed)
}

/// The source segment and record of an individual's IRI (`<…>` or
/// bare), `None` for a subject not minted under [`RECORDS`].
fn subject_key(iri: &str) -> Option<(&str, &str)> {
    iri.trim_start_matches('<').trim_end_matches('>').strip_prefix(RECORDS)?.rsplit_once('/')
}

/// Builds a row's engine; records why and returns `None` when it cannot.
type Engine<'a> = Box<dyn Fn(&mut Vec<Violation>) -> Option<S2s> + 'a>;

/// Changes an engine's sources before call `k`; returns the answer owed.
type Rounds<'a> = Box<dyn Fn(&S2s, usize) -> Answer + 'a>;

/// One row of the arm table.
struct Arm<'a> {
    name: String,
    engine: Engine<'a>,
    query: String,
    options: QueryOptions,
    /// The answer owed; `None` where the ground truth states none.
    expected: Option<Answer>,
    /// Calls on one engine: in turn, or from as many threads.
    calls: usize,
    threads: bool,
    /// Before call `k` in turn, changes the engine's sources and returns
    /// the answer owed from then on.
    rounds: Option<Rounds<'a>>,
    /// The oracle that fires when an engine built again answers a call
    /// otherwise or keeps another ledger.
    twice: Option<&'static str>,
}

impl<'a> Arm<'a> {
    fn new(
        name: impl Into<String>,
        engine: impl Fn(&mut Vec<Violation>) -> Option<S2s> + 'a,
        query: &str,
        expected: Option<Answer>,
    ) -> Arm<'a> {
        let (name, engine, query) = (name.into(), Box::new(engine), query.to_string());
        let options = QueryOptions::default();
        let (calls, threads, rounds, twice) = (1, false, None, None);
        Arm { name, engine, query, options, expected, calls, threads, rounds, twice }
    }
}

/// Every row of the arm table for `scenario`.
///
/// `batched` asks one engine `ATTRS.len()` times, so faults scheduled
/// past the first exchange fire; `replay` asks twice through the result
/// cache and `pooled` from three threads. `deadline` owes no answer,
/// only a subset of it (`overload-subset`). `unfiltered` is the
/// scenario with no condition; `decoy-on` adds a reliable DB source
/// that maps only `brand`, owing one more line per record that passes
/// the conditions. `delta` asks one engine with views through a cold
/// query, a warm repeat and three mutation rounds, each owing
/// [`Scenario::expected_over`] the catalog as mutated so far; price-only
/// rounds declare `fields = ["price"]` (the untouched-slice fast path),
/// the others nothing (the touches-everything path); a mutation changes
/// how many wire calls a query makes, so it runs fault-free only, as
/// `bootstrap` does. `flaky(p)` runs at three levels on a slice of
/// seeds, only `p = 0` owing an answer. The metamorphic rewrites come
/// from [`crate::meta`].
fn arms<'a>(
    scenario: &'a Scenario,
    expected: &Answer,
    reader: &'a Reader,
    violations: &mut Vec<Violation>,
) -> Vec<Arm<'a>> {
    let query = scenario.query_text();
    let built = |config: BuildConfig| move |_: &mut _| Some(scenario.build(&config));
    let owed = || Some(expected.clone());
    let hedged = move |_: &mut _| {
        let hedging = HedgeConfig { percentile: 50, min_samples: 1, min_delay: SimDuration::ZERO };
        let retry = RetryPolicy::attempts(RETRY_ATTEMPTS);
        let policy = ResiliencePolicy::default().with_retry(retry).with_hedging(hedging);
        Some(scenario.build(&BuildConfig::batched()).with_resilience(policy))
    };
    let deadline = SimDuration::from_millis(scenario.seed % 120 + 5);
    let bare = Scenario { conditions: Vec::new(), ..scenario.clone() };
    let (text, owed_bare) = (bare.query_text(), Some(bare.expected()));
    let mut arms = vec![
        Arm {
            calls: ATTRS.len(),
            twice: Some("pushdown-determinism"),
            ..Arm::new("batched", built(BuildConfig::batched()), &query, owed())
        },
        Arm { calls: 2, ..Arm::new("replay", built(BuildConfig::replay()), &query, owed()) },
        Arm {
            calls: 3,
            threads: true,
            ..Arm::new("pooled", built(BuildConfig::pooled(4)), &query, owed())
        },
        Arm::new("shed-recovery", |v: &mut _| Some(shed(scenario, reader, v)), &query, owed()),
        Arm {
            options: QueryOptions::default().with_deadline(deadline),
            twice: Some("overload-determinism"),
            ..Arm::new("deadline", built(BuildConfig::batched()), &query, None)
        },
        Arm { twice: Some("overload-determinism"), ..Arm::new("hedged", hedged, &query, owed()) },
        Arm::new(
            "unfiltered",
            move |_: &mut _| Some(bare.build(&BuildConfig::batched())),
            &text,
            owed_bare,
        ),
    ];
    if !scenario.conditions.is_empty() {
        let mut lines = expected.individuals.clone();
        for (index, r) in scenario.records().iter().enumerate() {
            if scenario.selects(r, |a| a == 0) {
                lines.push(Answer::line("decoy", index, [literal(0, &r.brand)]));
            }
        }
        let owed_decoy = Some(Answer::new(lines, expected.failed.clone()));
        arms.push(Arm::new("decoy-on", |_: &mut _| Some(decoy(scenario)), &query, owed_decoy));
    }
    if scenario.fault_free() {
        let first = RefCell::new(None);
        let row =
            Arm::new("bootstrap", move |v: &mut _| bootstrap(scenario, &first, v), &query, owed());
        arms.push(Arm { twice: Some("bootstrap-determinism"), ..row });
    }
    if scenario.fault_free() {
        let rounds = move |engine: &S2s, round: usize| {
            let records = catalog_after(scenario, round);
            let fields =
                if round.is_multiple_of(2) { vec!["price".to_string()] } else { Vec::new() };
            for (i, spec) in scenario.sources.iter().enumerate().filter(|_| round >= 2) {
                let (id, connection) = (format!("SRC_{i}"), connection_for(spec.kind, &records));
                let change = change_kind_for(spec.kind);
                engine.mutate_source(&id, connection, change, fields.clone()).expect("registered");
            }
            scenario.expected_over(&records)
        };
        arms.push(Arm {
            calls: 5,
            rounds: Some(Box::new(rounds)),
            twice: Some("delta-determinism"),
            ..Arm::new("delta", built(BuildConfig::delta()), &query, None)
        });
    }
    // Probabilistic probes (heavier; run on a slice). At `p = 0` every
    // endpoint answers, so `flaky(0)` owes the answer of the scenario
    // with every fault but a hostile rule removed.
    if scenario.seed.is_multiple_of(4) {
        let p = if scenario.seed.is_multiple_of(8) {
            1.0
        } else {
            (scenario.seed % 80 + 10) as f64 / 100.0
        };
        let answering = |s: &SourceSpec| match s.fault {
            FaultClass::HostileRule(_) => s.clone(),
            _ => SourceSpec { fault: FaultClass::Reliable, ..s.clone() },
        };
        let sources = scenario.sources.iter().map(answering).collect();
        let owed_flaky = Scenario { sources, ..scenario.clone() }.expected();
        for (level, owed) in [(0.0, Some(owed_flaky)), (p / 2.0, None), (p, None)] {
            let engine = move |_: &mut _| {
                let flaky = scenario.build_with(&BuildConfig::batched(), Some(level));
                Some(flaky.with_resilience(ResiliencePolicy::none()))
            };
            let row = Arm::new(format!("flaky({level})"), engine, &query, owed);
            arms.push(Arm { twice: (level == p).then_some("determinism"), ..row });
        }
    }
    for (name, config, text) in meta::rewrites(scenario, violations) {
        arms.push(Arm::new(name, built(config), &text, owed()));
    }
    arms
}

/// What one row made: per call, the outcome and the answer read from it.
type Calls = Vec<(QueryOutcome, Answer)>;

/// Runs every row of `arms` through the checks every row shares: the
/// answer owed, [`check_outcome`] and the row's determinism. `None` when
/// a query does not parse (`query-valid`).
fn run<'t>(
    arms: &'t [Arm<'_>],
    reader: &Reader,
    violations: &mut Vec<Violation>,
) -> Option<Vec<(&'t str, Calls)>> {
    let mut ran = Vec::new();
    for (row, arm) in arms.iter().enumerate() {
        let Some(engine) = (arm.engine)(violations) else { continue };
        let (query, options) = (&arm.query, &arm.options);
        let call = || engine.query_with_options(query, options);
        let owed = |engine: &S2s, k| {
            arm.rounds.as_ref().map_or(arm.expected.clone(), |r| Some(r(engine, k)))
        };
        let outcomes: Result<Vec<_>, _> = if arm.threads {
            std::thread::scope(|scope| {
                let clients: Vec<_> = (0..arm.calls).map(|_| scope.spawn(call)).collect();
                let outcomes = clients.into_iter().map(|c| c.join().expect("no panic in a client"));
                outcomes.map(|o| o.map(|o| (o, arm.expected.clone()))).collect()
            })
        } else {
            (0..arm.calls)
                .map(|k| (owed(&engine, k), call()))
                .map(|(e, o)| o.map(|o| (o, e)))
                .collect()
        };
        let outcomes = outcomes.map_err(|e| format!("{}: {e}", arm.name));
        let outcomes = outcomes.map_err(|e| violations.check(false, "query-valid", || e)).ok()?;
        let mut calls = Calls::new();
        for (k, (outcome, expected)) in outcomes.into_iter().enumerate() {
            let name = if arm.calls == 1 { arm.name.clone() } else { format!("{}-{k}", arm.name) };
            let answer = reader.read(&outcome, row + k);
            if let Some(expected) = expected {
                violations.check(answer == expected, "ground-truth", || {
                    format!("{name} answered\n{answer}expected\n{expected}")
                });
            }
            check_outcome(&outcome, &name, violations);
            calls.push((outcome, answer));
        }
        let again = arm.twice.and_then(|oracle| Some((oracle, (arm.engine)(violations)?)));
        if let Some((oracle, again)) = again {
            let same = calls.iter().enumerate().all(|(k, (first, answer))| {
                if let Some(rounds) = &arm.rounds {
                    rounds(&again, k);
                }
                let outcome = again.query_with_options(query, options).expect("parsed before");
                reader.read(&outcome, row + k) == *answer && outcome.sources == first.sources
            });
            violations.check(same, oracle, || {
                format!("{}: two identically built engines disagreed", arm.name)
            });
        }
        ran.push((arm.name.as_str(), calls));
    }
    Some(ran)
}

/// Runs every oracle over `scenario`; returns the violations found.
pub fn check_scenario(scenario: &Scenario) -> Vec<Violation> {
    let mut v = Vec::new();
    let expected = scenario.expected();
    let reader = Reader::new(scenario.seed);
    let arms = arms(scenario, &expected, &reader, &mut v);
    let Some(ran) = run(&arms, &reader, &mut v) else {
        return v;
    };
    let row = |name: &str| ran.iter().find(|(n, _)| *n == name).map(|(_, calls)| &calls[..]);
    let first = |name: &str| &row(name).expect("a row of every table")[0];

    let (n_sources, n_schemas) = (scenario.sources.len(), scenario.sources.len() * ATTRS.len());
    for (r, (o, _)) in row("batched").into_iter().flatten().enumerate() {
        let (retries, failovers, s) = (o.retries(), o.failovers(), &o.stats);
        let fault_free = scenario.fault_free();
        v.check(!fault_free || retries + failovers == 0, "zero-fault-resilience", || {
            format!("batched-{r}: retries {retries} failovers {failovers} without faults")
        });
        let trips = s.round_trips;
        v.check(!fault_free || trips == n_sources as u64, "round-trip-conservation", || {
            format!("batched-{r}: fault-free round_trips {trips} != sources {n_sources}")
        });
        v.check(s.tasks == n_schemas, "task-conservation", || {
            format!("batched-{r}: tasks {} != schemas {n_schemas}", s.tasks)
        });
    }
    let (filtered, _) = first("batched");
    check_shapes(filtered, &expected, &reader, &mut v);
    // Replay: a complete answer is replayed at no cost, a degraded one
    // never admitted.
    if let Some([(first, _), (second, _)]) = row("replay") {
        let (s, hits) = (&second.stats, second.stats.result_cache.hits);
        let complete = first.stats.failed_tasks == 0 && first.stats.completeness >= 1.0;
        v.check(hits == u64::from(complete), "replay-admission", || {
            format!("an answer complete {complete} read {hits} result-cache hits")
        });
        let (trips, simulated) = (s.round_trips, s.simulated);
        let plan_ops = s.plan_cache.hits + s.plan_cache.misses;
        let free = trips + plan_ops == 0 && simulated == SimDuration::ZERO;
        v.check(hits != 1 || free, "replay-zero-cost", || {
            format!("replay: {trips} round trips, {simulated:?} simulated, {plan_ops} plan lookups")
        });
    }

    // Overload: a deadline cuts an answer to a subset and never raises
    // completeness; a hedge is won only where one was launched.
    let (cut, cut_answer) = first("deadline");
    v.check(cut_answer.individuals_within(&expected), "overload-subset", || {
        format!("deadline-limited answer invented instances\n{cut_answer}expected\n{expected}")
    });
    let (full, limited) = (filtered.stats.completeness, cut.stats.completeness);
    v.check(limited <= full + 1e-12, "overload-completeness", || {
        format!("a deadline raised completeness from {full} to {limited}")
    });
    let (hedges, wins) = (first("hedged").0.hedges(), first("hedged").0.hedge_wins());
    v.check(wins <= hedges, "overload-hedge-accounting", || {
        format!("hedge_wins {wins} exceeds hedges launched {hedges}")
    });

    // Pushdown: the filtered run's responses are subsets of its
    // unfiltered twin's, and a conjunct that requires `price` or `case`
    // prunes the brand-only decoy.
    let (bytes, twin) =
        (filtered.stats.wire_response_bytes, first("unfiltered").0.stats.wire_response_bytes);
    v.check(bytes <= twin, "pushdown-wire-monotonicity", || {
        format!("filtered responses grew: {bytes} bytes vs unfiltered {twin}")
    });
    if let Some([(on, _)]) = row("decoy-on") {
        let requires = scenario.conditions.iter().flat_map(Cond::required).any(|attr| attr != 0);
        let pruned = on.source("DECOY").is_some_and(|r| r.pruned);
        v.check(!requires || pruned, "pushdown-prune", || {
            "the decoy mapping only `brand` was not pruned".into()
        });
    }

    // Completeness monotonicity in failure probability, on the
    // configuration where it is per-seed provable: batched (one logical
    // call per endpoint per query), no retry, no failover, so the
    // per-endpoint draw sequences stay aligned across levels.
    let flaky: Vec<_> = ran.iter().filter(|(name, _)| name.starts_with("flaky(")).collect();
    for pair in flaky.windows(2) {
        let [(lower, before), (higher, after)] = [pair[0], pair[1]];
        let (before, after) = (before[0].0.stats.completeness, after[0].0.stats.completeness);
        v.check(after <= before + 1e-12, "completeness-monotonicity", || {
            format!("completeness rose from {before} ({lower}) to {after} ({higher})")
        });
    }
    if let Some(delta) = row("delta") {
        let (warm, n) = (&delta[1].0.stats, n_schemas as u64);
        v.check(warm.round_trips == 0 && warm.view_hits == n, "delta-view-replay", || {
            let (trips, hits) = (warm.round_trips, warm.view_hits);
            format!("unmutated repeat: {trips} round trips, {hits} of {n} view hits")
        });
        for (round, (o, _)) in delta.iter().enumerate().skip(1) {
            let s = &o.stats;
            let (hits, refreshes, full) = (s.view_hits, s.view_refreshes, s.view_full_refreshes);
            v.check(hits + refreshes + full == n, "delta-accounting", || {
                format!("round {round}: {hits} hits + {refreshes} + {full} refreshes != {n} slices")
            });
        }
    }
    v
}

/// The plain XML and text renderings of `outcome`, which no client
/// parses into a graph: each must be well-formed and name one subject
/// per individual of `expected` (`render-shape`).
fn check_shapes(
    outcome: &QueryOutcome,
    expected: &Answer,
    reader: &Reader,
    v: &mut Vec<Violation>,
) {
    let key = |iri: &str| subject_key(iri).map(|(segment, record)| format!("{segment}#{record}"));
    let xml = outcome.render(&reader.ontology, OutputFormat::Xml);
    let from_xml = s2s_xml::parse(&xml).ok().and_then(|doc| {
        let subjects = doc.root().child_elements().filter_map(|e| e.attribute("about"));
        subjects.map(key).collect::<Option<Vec<_>>>()
    });
    // A subject line starts a line; a value line is indented (and a
    // value keeps its own line breaks), an annotation starts `!` or `#`.
    let text = outcome.render(&reader.ontology, OutputFormat::Text);
    let from_text = (text.lines())
        .filter(|line| !line.is_empty() && !line.starts_with([' ', '!', '#']))
        .map(|line| line.split_once(" [").and_then(|(iri, _)| key(iri)))
        .collect::<Option<Vec<_>>>();
    let mut want: Vec<String> = expected
        .individuals
        .iter()
        .map(|l| l.split(' ').next().unwrap_or_default().into())
        .collect();
    want.sort();
    for (format, mut subjects) in [("XML", from_xml), ("text", from_text)] {
        subjects.iter_mut().for_each(|s| s.sort());
        v.check(subjects.as_ref() == Some(&want), "render-shape", || {
            format!("plain {format} names subjects {subjects:?}, expected {want:?}")
        });
    }
}

/// Invariants of every outcome: its [`QueryStats`](s2s_core::middleware::QueryStats)
/// agree with themselves, and a pruned source was planned away whole —
/// its ledger row shows no task and no pushed conjunct
/// (`pushdown-stats`), no attempt and no wire byte
/// (`pushdown-pruned-attempts`).
fn check_outcome(outcome: &QueryOutcome, path: &str, v: &mut Vec<Violation>) {
    let (s, errors) = (&outcome.stats, outcome.errors().len());
    v.check(s.failed_tasks == errors, "stats-failed-tasks", || {
        format!("{path}: failed_tasks {} != errors {errors}", s.failed_tasks)
    });
    let (simulated, serial) = (s.simulated, s.simulated_serial);
    v.check(simulated <= serial, "stats-simulated", || {
        format!("{path}: simulated {simulated:?} exceeds the serial bound {serial:?}")
    });
    // Exactly one plan-cache lookup per fresh (non-replayed) query,
    // however many clients share the engine.
    let plan_ops = s.plan_cache.hits + s.plan_cache.misses;
    v.check(s.result_cache.hits != 0 || plan_ops == 1, "cache-delta", || {
        format!("{path}: plan cache hits+misses = {plan_ops}, expected 1")
    });
    for r in outcome.sources.iter().filter(|r| r.pruned) {
        v.check(r.tasks == 0 && r.pushed.is_empty(), "pushdown-stats", || {
            format!("pruned source {} ran {} tasks, pushed {:?}", r.source, r.tasks, r.pushed)
        });
        v.check(
            r.attempts + r.breaker_rejections == 0 && r.wire_bytes == 0,
            "pushdown-pruned-attempts",
            || format!("pruned source {} was dialled anyway: {r:?}", r.source),
        );
    }
}

/// The catalog after delta round `round`: from round 2 on, every
/// integer price moves each round (a respelled one stays as spelled),
/// and the declare-nothing rounds (odd) also rotate every brand, so a
/// mutation really is confined to the declared fields on even rounds.
fn catalog_after(scenario: &Scenario, round: usize) -> Vec<Record> {
    use crate::scenario::BRANDS;
    let mut records = scenario.records();
    for round in 2..=round {
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
    records
}

/// The `bootstrap` row's engine: its mappings come entirely from the
/// automatic schema bootstrap (`S2s::bootstrap_source` +
/// `apply_bootstrap`) over the sources [`Scenario::build`] registers.
/// The operator makes the interventions the conform catalog genuinely
/// needs: the bare `<b>`/`<i>` web tags carry no name signal and surface
/// as ambiguous-target conflicts (resolved to brand/case), a price field
/// whose samples are not all numbers (a spelled catalog's placeholders,
/// or a `TEXT` column) surfaces as an ambiguous-type conflict (accepted
/// for its path), and single-record sources override the shape-implied
/// multi-record scenario.
///
/// `bootstrap-coverage` fires unless every source bootstraps exactly one
/// accepted, applied candidate per attribute; `bootstrap-determinism`
/// unless every build bootstraps the candidates (field, path, rule,
/// scenario, confidence) of the `first` one.
fn bootstrap(
    scenario: &Scenario,
    first: &RefCell<Option<Vec<String>>>,
    v: &mut Vec<Violation>,
) -> Option<S2s> {
    use s2s_core::bootstrap::Conflict;
    use s2s_core::mapping::RecordScenario;

    let build = || -> Result<(S2s, Vec<String>), String> {
        let mut s2s = scenario.deploy(&BuildConfig::batched(), None);
        let mut signatures = Vec::new();
        for (i, spec) in scenario.sources.iter().enumerate() {
            let id = format!("SRC_{i}");
            let mut report = s2s.bootstrap_source(&id).map_err(|e| format!("{id}: {e}"))?;
            let mut resolutions = Vec::new();
            if matches!(spec.kind, crate::scenario::SourceKindSpec::Web) {
                resolutions.push(("b".into(), "thing.product.watch.brand".into()));
                resolutions.push(("i".into(), "thing.product.watch.case".into()));
            }
            resolutions.extend(report.conflicts.iter().filter_map(|c| match c {
                Conflict::AmbiguousType { field, path, .. } => Some((field.clone(), path.clone())),
                _ => None,
            }));
            for (field, path) in resolutions {
                report.resolve(&field, &path).map_err(|e| format!("{id}: {e}"))?;
            }
            if spec.single_record {
                report.override_scenario(RecordScenario::SingleRecord);
            }
            s2s.apply_bootstrap(&mut report).map_err(|e| format!("{id}: {e}"))?;
            let (kind, applied) =
                (spec.kind, report.candidates.iter().filter(|c| c.applied).count());
            if applied != ATTRS.len() {
                return Err(format!(
                    "{id} ({kind:?}): {applied} mappings bootstrapped, want {}",
                    ATTRS.len()
                ));
            }
            signatures.extend(report.candidates.iter().map(|c| {
                let (field, path, rule, scenario) = (&c.field, &c.path, &c.rule, &c.scenario);
                format!("{field}|{path}|{rule:?}|{scenario:?}|{}|{}", c.confidence, c.accepted)
            }));
        }
        Ok((s2s, signatures))
    };
    let (engine, signatures) =
        build().map_err(|e| v.check(false, "bootstrap-coverage", || e)).ok()?;
    let same = first.borrow().as_ref().is_none_or(|first| *first == signatures);
    v.check(same, "bootstrap-determinism", || {
        "re-bootstrap produced a different candidate set".into()
    });
    first.borrow_mut().get_or_insert(signatures);
    Some(engine)
}

/// The batched deployment plus one reliable DB source (`DECOY`) that
/// maps only `brand` — prunable whenever the condition requires `price`
/// or `case`, and a harmless extra contributor otherwise.
fn decoy(scenario: &Scenario) -> S2s {
    use crate::scenario::{rule_for, SourceKindSpec};
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

/// The `shed-recovery` row's engine: with its single permit held by
/// another tenant, a budgeted query is refused at arrival
/// (`overload-shed`) with an honestly empty answer and no round trip
/// (`overload-shed-honesty`), touching no cache (`overload-shed-cache`);
/// then the permit frees.
fn shed(scenario: &Scenario, reader: &Reader, v: &mut Vec<Violation>) -> S2s {
    let engine = scenario.build(&BuildConfig::batched()).with_admission(
        AdmissionConfig::with_permits(1).with_service_estimate(SimDuration::from_millis(20)),
    );
    let controller = engine.admission().expect("admission was just configured");
    let hog = controller.admit("hog", None).expect("first permit is free");
    let opts =
        QueryOptions::default().with_tenant("meek").with_deadline(SimDuration::from_millis(1));
    let shed = engine.query_with_options(&scenario.query_text(), &opts).expect("shed still parses");
    let s = &shed.stats;
    v.check(s.shed, "overload-shed", || {
        "budgeted query was admitted past a saturated controller".into()
    });
    let (individuals, completeness, trips) =
        (reader.read(&shed, 0).individuals.len(), s.completeness, s.round_trips);
    let honest = individuals == 0 && completeness == 0.0 && trips == 0;
    v.check(honest, "overload-shed-honesty", || {
        format!("shed: {individuals} individuals, completeness {completeness}, {trips} round trips")
    });
    let untouched = s.plan_cache == Default::default() && engine.plan_cache_len() == 0;
    v.check(untouched, "overload-shed-cache", || "shed query touched the plan cache".into());
    drop(hog);
    engine
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
        assert_eq!(Reader::new(scenario.seed).read(&filtered, 0), scenario.expected());
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
        let reader = Reader::new(scenario.seed);
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
                reader.read(&after, 1),
                reader.read(&first, 0),
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
            assert_eq!(reader.read(&again, 2), reader.read(&first, 0));
        }
        let violations = check_scenario(&scenario);
        assert!(violations.is_empty(), "{violations:#?}");
    }

    /// An answer is read from the graph a client parses: every RDF
    /// format gives the same one, and a literal's sign or datatype is
    /// part of it.
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
        let reader = Reader::new(scenario.seed);
        let outcome = |query: &str| scenario.build(&BuildConfig::batched()).query(query).unwrap();
        let a = reader.read(&outcome(&scenario.query_text()), 0);
        assert_eq!(a, scenario.expected());
        for n in 1..FORMATS.len() {
            let again = outcome(&scenario.query_text());
            assert_eq!(a, reader.read(&again, n), "identical builds answer identically");
        }
        assert_eq!(a.individuals.len(), 3);
        assert_ne!(a, reader.read(&outcome("SELECT watch WHERE price < 0"), 0));

        let subject = format!("<{RECORDS}src_0/0>");
        let price = format!("<{}price>", crate::scenario::NS);
        let graph = |object: &str| {
            let text = format!("{subject} {price} {object} .\n");
            read_graph(&text, OutputFormat::NTriples, [])
        };
        let decimal = |lexical: &str| format!("\"{lexical}\"^^<{}decimal>", xsd::NS);
        assert_eq!(
            graph(&decimal("-169")).individuals,
            [r#"src_0#0 price="-169"^^xsd:decimal"#],
            "the line reads the literal as parsed"
        );
        assert_ne!(graph(&decimal("-169")), graph(&decimal("169")), "a sign is a value");
        let integer = format!("\"169\"^^<{}integer>", xsd::NS);
        assert_ne!(graph(&decimal("169")), graph(&integer), "a datatype is a value");
        assert_ne!(graph(&decimal("169")), graph("\"169\""), "so is none");
    }
}
