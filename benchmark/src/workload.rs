//! Turns generated inputs into a running engine, drives the closed
//! loop against it, and checks every answer.
//!
//! Engine settings stay at `S2s::new` defaults except where a workload
//! is defined by one (strategy, result cache, views), so a later PR
//! that changes a default is seen by the benchmark.

use std::sync::Arc;
use std::time::{Duration, Instant};

use s2s_core::extract::Strategy;
use s2s_core::instance::OutputFormat;
use s2s_core::mapping::RecordScenario;
use s2s_core::middleware::QueryOutcome;
use s2s_core::source::Connection;
use s2s_core::S2s;
use s2s_minidb::Database;
use s2s_netsim::{ChangeKind, CostModel, FailureModel};
use s2s_webdoc::WebStore;

use crate::gen::{individual_fingerprint, Expect, Oracle, Payload, SourceSpec, Workload};

/// Counts that repeat exactly are taken over this many leading ops of
/// a run, so they do not depend on how many ops fit in the window.
pub const PREFIX_OPS: usize = 200;

/// Queries set-up runs before any window opens, so caches are filled
/// and lazy set-up is finished; windows continue the cycle after them.
pub const WARMUP_OPS: usize = 3;

/// Each client measures the machine's speed this often, between ops
/// (see [`crate::measure::Calibrated`]).
const PROBE_EVERY: Duration = Duration::from_millis(20);

/// Builds a source's connection from its bytes: the DB load, the XML
/// parse, the document store. This is the part of set-up a substrate
/// change moves.
pub fn connect(spec: &SourceSpec) -> Connection {
    match &spec.payload {
        Payload::Sql(statements) => {
            let mut db = Database::new(spec.id.clone());
            for sql in statements {
                db.execute(sql).expect("generated SQL loads");
            }
            Connection::Database { db: Arc::new(db) }
        }
        Payload::Xml(xml) => Connection::Xml {
            document: Arc::new(s2s_xml::parse(xml).expect("generated XML parses")),
        },
        Payload::Html(html) => {
            let mut store = WebStore::new();
            store.register_html(spec.url(), html.clone());
            Connection::Web { store: Arc::new(store), url: spec.url() }
        }
        Payload::Text(text) => {
            let mut store = WebStore::new();
            store.register_text(spec.url(), text.clone());
            Connection::Text { store: Arc::new(store), url: spec.url() }
        }
    }
}

fn change_kind(payload: &Payload) -> ChangeKind {
    match payload {
        Payload::Sql(_) => ChangeKind::RowUpdate,
        Payload::Xml(_) | Payload::Html(_) => ChangeKind::NodeEdit,
        Payload::Text(_) => ChangeKind::DocReplace,
    }
}

/// An engine and what its registration calls took, so the write path
/// can be reported on its own.
pub struct Built {
    pub engine: S2s,
    pub register: Duration,
}

/// Builds the workload's engine: connections, then source and
/// attribute registration through the public write path.
pub fn build_engine(w: &Workload) -> Built {
    let connections: Vec<Connection> = w.sources.iter().map(connect).collect();

    let started = Instant::now();
    let mut engine = S2s::new(w.ontology.clone());
    if w.workers > 1 {
        engine = engine.with_strategy(Strategy::Parallel { workers: w.workers });
    }
    if w.cached {
        engine = engine.with_result_cache().with_views();
    }
    for (spec, connection) in w.sources.iter().zip(connections) {
        if w.remote {
            engine.register_remote_source(
                &spec.id,
                connection,
                CostModel::wan(),
                FailureModel::reliable(),
            )
        } else {
            engine.register_source(&spec.id, connection)
        }
        .expect("source ids are unique");
        for (path, rule) in &spec.rules {
            engine
                .register_attribute(path, rule.clone(), &spec.id, RecordScenario::MultiRecord)
                .expect("generated mappings resolve");
        }
    }
    Built { engine, register: started.elapsed() }
}

/// Count and fingerprint of the individuals an answer holds.
pub fn observed<'a>(
    individuals: impl Iterator<Item = &'a s2s_core::instance::Individual>,
) -> Expect {
    let mut seen = Expect { count: 0, fingerprint: 0 };
    for ind in individuals {
        seen.count += 1;
        let pairs =
            ind.values.iter().flat_map(|(p, vs)| vs.iter().map(|v| (p.as_str(), v.as_str())));
        seen.fingerprint = seen.fingerprint.wrapping_add(individual_fingerprint(pairs));
    }
    seen
}

/// Checks that a rendered answer parses back to the graph it was
/// rendered from.
pub fn reparses(outcome: &QueryOutcome, engine: &S2s, format: OutputFormat) -> bool {
    let text = outcome.render(engine.ontology(), format);
    let parsed = match format {
        OutputFormat::OwlRdfXml => s2s_rdf::rdfxml::parse(&text),
        _ => s2s_rdf::turtle::parse(&text),
    };
    parsed.is_ok_and(|g| g.len() == outcome.instances.graph.len())
}

/// One measured op. Kept small: `fleet_churn` records a few hundred
/// thousand per run and they count toward `peak_rss_mb`.
#[derive(Debug, Clone, Copy)]
pub struct OpSample {
    /// When the op ended, from the start of the window.
    pub end_us: u32,
    pub latency_ns: u32,
    pub instances: u32,
    /// View slices served without touching the source.
    pub view_hits: u16,
    /// The result cache replayed the whole answer.
    pub replay: bool,
    /// The plan cache had the text.
    pub plan_hit: bool,
}

/// What one client saw over a window.
#[derive(Default)]
pub struct ClientLog {
    pub samples: Vec<OpSample>,
    pub failed: u64,
    pub mutate_ns: Vec<u64>,
    /// `(end_us, duration_ns)` of the speed probes run between ops.
    pub probes: Vec<(u32, u32)>,
    /// Over the client's share of the first [`PREFIX_OPS`] ops.
    pub prefix: Prefix,
}

/// Exact counts and virtual-clock readings over the fixed op prefix.
#[derive(Default)]
pub struct Prefix {
    pub ops: u64,
    pub round_trips: u64,
    pub wire_bytes: u64,
    pub simulated_us: Vec<u64>,
    pub simulated_serial_us: u64,
    pub rendered_bytes: u64,
    pub rendered_instances: u64,
}

/// Per-client loop state.
struct Client<'a> {
    engine: &'a S2s,
    w: &'a Workload,
    oracle: Oracle,
    churn: Option<crate::gen::Churn>,
    /// Index of the next op in the workload's query cycle.
    next: usize,
    stride: usize,
    seed: u64,
    log: ClientLog,
    prefix_share: usize,
    reparsed: bool,
    next_probe: Duration,
}

impl Client<'_> {
    /// One op: maybe a mutation, then a timed query (+ render), then
    /// verification outside the timed interval.
    fn op(&mut self, window_started: Instant) {
        let w = self.w;
        let since = window_started.elapsed();
        if since >= self.next_probe {
            let started = Instant::now();
            std::hint::black_box(crate::measure::probe());
            let took = started.elapsed();
            self.log.probes.push(((since + took).as_micros() as u32, took.as_nanos() as u32));
            self.next_probe = since + PROBE_EVERY;
        }
        if let Some(churn) = &mut self.churn {
            if self.next.is_multiple_of(churn.every) {
                let m = churn.next(&mut self.oracle);
                let connection = connect(&m.source);
                let kind = change_kind(&m.source.payload);
                let started = Instant::now();
                let receipt =
                    self.engine.mutate_source(&m.source.id, connection, kind, vec![m.field]);
                self.log.mutate_ns.push(started.elapsed().as_nanos() as u64);
                if receipt.is_err() {
                    self.log.failed += 1;
                    eprintln!("FAILED mutate {} seed {}: {receipt:?}", m.source.id, self.seed);
                }
            }
        }
        let query = &w.queries[self.next % w.queries.len()];
        self.next += self.stride;

        let started = Instant::now();
        let outcome = self.engine.query(&query.text);
        let rendered =
            outcome.as_ref().ok().zip(w.render).map(|(o, f)| o.render(self.engine.ontology(), f));
        let latency = started.elapsed();

        let in_prefix = self.log.samples.len() < self.prefix_share;
        let expect = self.oracle.expect(query);
        let ok = match &outcome {
            Ok(o) => o.errors().is_empty() && observed(o.individuals().iter()) == expect,
            Err(_) => false,
        };
        let ok = ok
            && (self.reparsed || {
                // Once per run: the output format round-trips.
                self.reparsed = true;
                let o = outcome.as_ref().expect("ok implies an outcome");
                reparses(o, self.engine, w.render.unwrap_or(OutputFormat::Turtle))
            });
        if !ok {
            self.log.failed += 1;
            eprintln!(
                "FAILED {} seed {} query {:?}: expected {expect:?}, got {:?}",
                w.name,
                self.seed,
                query.text,
                outcome.as_ref().map(|o| (observed(o.individuals().iter()), o.errors().len())),
            );
        }
        let answer = outcome.as_ref().ok();
        self.log.samples.push(OpSample {
            end_us: window_started.elapsed().as_micros() as u32,
            latency_ns: u32::try_from(latency.as_nanos()).unwrap_or(u32::MAX),
            instances: answer.map_or(0, |o| o.individuals().len() as u32),
            view_hits: answer.map_or(0, |o| o.stats.view_hits as u16),
            replay: answer.is_some_and(|o| o.stats.result_cache.hits > 0),
            plan_hit: answer.is_some_and(|o| o.stats.plan_cache.hits > 0),
        });
        let Ok(outcome) = outcome else { return };
        let stats = &outcome.stats;
        if in_prefix {
            let p = &mut self.log.prefix;
            p.ops += 1;
            p.round_trips += stats.round_trips;
            p.wire_bytes += stats.wire_bytes;
            p.simulated_us.push(stats.simulated.as_micros());
            p.simulated_serial_us += stats.simulated_serial.as_micros();
            // Workloads that do not render in the op still report an
            // answer size: their first answer, rendered as Turtle.
            let text = match rendered {
                Some(text) => Some(text),
                None if p.ops == 1 => {
                    Some(outcome.render(self.engine.ontology(), OutputFormat::Turtle))
                }
                None => None,
            };
            if let Some(text) = text {
                p.rendered_bytes += text.len() as u64;
                p.rendered_instances += outcome.individuals().len() as u64;
            }
        }
    }
}

/// What a window measured, before it is reduced to metrics.
pub struct WindowResult {
    pub clients: Vec<ClientLog>,
    /// The window is cut into slices of this length.
    pub slice: Duration,
    /// Process CPU (user + system) at every slice boundary, first to
    /// last: one more entry than there are slices.
    pub cpu_ms_at: Vec<f64>,
}

/// Runs `clients` closed-loop clients against a warmed-up `engine` for
/// `window`. Client `c` starts `c` queries after the warm-up and strides
/// by the client count, so together they walk the workload's cycle in
/// order. The calling thread only samples the CPU counter, once per
/// 100 ms slice.
pub fn run_window(
    engine: &S2s,
    w: &Workload,
    clients: usize,
    seed: u64,
    window: Duration,
) -> WindowResult {
    assert!(clients == 1 || w.churn.is_none(), "mutations are applied by a single client");
    let mut states: Vec<Client> = (0..clients)
        .map(|c| Client {
            engine,
            w,
            oracle: w.oracle.clone(),
            churn: w.churn.clone(),
            next: WARMUP_OPS + c,
            stride: clients,
            seed,
            log: ClientLog::default(),
            prefix_share: PREFIX_OPS / clients,
            reparsed: false,
            next_probe: Duration::ZERO,
        })
        .collect();
    let slices = ((window.as_millis() / 100) as u32).max(1);
    let slice = window / slices;
    let mut cpu_ms_at = vec![crate::measure::cpu_ms()];
    let started = Instant::now();
    std::thread::scope(|scope| {
        for state in &mut states {
            scope.spawn(move || {
                while started.elapsed() < window {
                    state.op(started);
                }
            });
        }
        for boundary in 1..=slices {
            std::thread::sleep((slice * boundary).saturating_sub(started.elapsed()));
            cpu_ms_at.push(crate::measure::cpu_ms());
        }
    });
    WindowResult { clients: states.into_iter().map(|s| s.log).collect(), slice, cpu_ms_at }
}
