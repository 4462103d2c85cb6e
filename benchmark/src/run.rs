//! One run of one workload: either the end-to-end metrics with tracing
//! off, or the per-layer metrics from the traced pass.

use std::time::{Duration, Instant};

use s2s_core::instance::{InstanceSet, OutputFormat};

use crate::gen::Workload;
use crate::json::Json;
use crate::layers;
use crate::measure::median_ns;
use crate::measure::{
    median, median_u64, peak_rss_mb, percentile, probe, samples_beyond, supports, Calibrated,
    PROBE_NOMINAL_NS, TAIL,
};
use crate::trace::{self, Tracer, ENGINE, STAGED};
use crate::workload::{
    build_engine, observed, run_window, Built, OpSample, WindowResult, WARMUP_OPS,
};

/// `(name, unit)` of every end-to-end metric, reported by every
/// workload with tracing off. `BENCHMARK.json` fixes direction and
/// bound for each.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("query_p50_us", "us"),
    ("queries_per_s", "1/s"),
    ("instances_per_s", "1/s"),
    ("cpu_ms_per_query", "ms"),
    ("peak_rss_mb", "MB"),
    ("output_bytes_per_instance", "B"),
];

/// `(name, unit)` of every per-layer metric, reported by every
/// workload from the traced pass; zero where a layer is not on the
/// workload's path.
pub const PER_LAYER: [(&str, &str); 51] = [
    ("query_p95_us", "us"),
    ("query.normalize_ns", "ns"),
    ("query.parse_ns", "ns"),
    ("query.plan_ns", "ns"),
    ("engine.plan_cache_hit_ratio", "ratio"),
    ("engine.result_cache_hit_ratio", "ratio"),
    ("engine.replay_us", "us"),
    ("mapping.register_us_per_attr", "us"),
    ("mapping.register_us_per_attr_512", "us"),
    ("mapping.lookup_ns", "ns"),
    ("mapping.obtain_schemas_us", "us"),
    ("extract.sql_us", "us"),
    ("extract.xpath_us", "us"),
    ("extract.webl_us", "us"),
    ("extract.regex_us", "us"),
    ("extract.values_per_s", "1/s"),
    ("textmatch.compile_us", "us"),
    ("textmatch.scan_mb_per_s", "MB/s"),
    ("textmatch.matches", "count"),
    ("minidb.select_us", "us"),
    ("minidb.rows_returned", "count"),
    ("minidb.load_rows_per_s", "1/s"),
    ("xml.parse_mb_per_s", "MB/s"),
    ("xml.xpath_us", "us"),
    ("webdoc.html_parse_mb_per_s", "MB/s"),
    ("webdoc.webl_run_us", "us"),
    ("instance.generate_us", "us"),
    ("instance.generate_ns_per_instance", "ns"),
    ("instance.render_rdfxml_us", "us"),
    ("instance.render_turtle_us", "us"),
    ("rdf.rdfxml_serialize_us", "us"),
    ("rdf.turtle_serialize_us", "us"),
    ("rdf.triples", "count"),
    ("netsim.encode_batch_ns", "ns"),
    ("netsim.decode_batch_ns", "ns"),
    ("round_trips_per_query", "count"),
    ("wire_bytes_per_query", "B"),
    ("sim_makespan_ms", "ms"),
    ("dispatch.overhead_us", "us"),
    ("dispatch.sim_speedup", "ratio"),
    ("dispatch.client_scaling", "ratio"),
    ("view.hit_ratio", "ratio"),
    ("view.refresh_us", "us"),
    ("mutate_p50_us", "us"),
    ("register_per_s", "1/s"),
    ("trace.coverage_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.ops", "count"),
    ("trace.engine_op_us", "us"),
    ("machine.slowdown_ratio", "ratio"),
    ("failed_ratio", "ratio"),
];

/// What one run measured.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// How much slower than nominal the machine ran during the window
    /// (median over slices); the timings have it divided out.
    pub slowdown: f64,
    /// In the order of [`END_TO_END`] or [`PER_LAYER`].
    pub metrics: Vec<(&'static str, &'static str, f64)>,
}

impl Outcome {
    /// The one-line result the run ends its standard output with.
    pub fn to_json(&self) -> Json {
        let metrics = self.metrics.iter().map(|(name, unit, value)| {
            let entry =
                Json::obj([("value", Json::Num(*value)), ("unit", Json::Str((*unit).into()))]);
            (*name, entry)
        });
        Json::obj([
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
    }

    /// Every metric by name with its unit, for people, on stderr.
    pub fn print_table(&self, w: &Workload) {
        let ops = self.attempted as usize;
        eprintln!(
            "{}: {} ops attempted, {} failed; {} samples beyond p{:.0}{}; machine at {:.2}x \
             nominal probe time",
            w.name,
            self.attempted,
            self.failed,
            samples_beyond(ops, TAIL),
            TAIL * 100.0,
            if supports(ops, TAIL) { "" } else { " (too few: read the tail with care)" },
            self.slowdown,
        );
        for (name, unit, value) in &self.metrics {
            eprintln!("  {name:<36} {value:>16.4} {unit}");
        }
    }
}

fn tabulate(
    table: &[(&'static str, &'static str)],
    values: &[(&'static str, f64)],
) -> Vec<(&'static str, &'static str, f64)> {
    table
        .iter()
        .map(|(name, unit)| {
            let value = values
                .iter()
                .find(|(n, _)| n == name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"))
                .1;
            (*name, *unit, value)
        })
        .collect()
}

/// Set-up is repeated so its reported time is a median: at least this
/// often, and until this share of the run's window has gone into it.
const SETUP_MIN_REPS: usize = 5;
const SETUP_MIN_SHARE: f64 = 0.075;
const SETUP_MAX_REPS: usize = 60;

/// One set-up: connections from the generated bytes, registration, and
/// the first answers that fill lazy state.
fn set_up(w: &Workload) -> (Built, Duration) {
    let started = Instant::now();
    let built = build_engine(w);
    for query in w.queries.iter().take(WARMUP_OPS) {
        let outcome = built.engine.query(&query.text).expect("generated S2SQL");
        if let Some(format) = w.render {
            std::hint::black_box(outcome.render(built.engine.ontology(), format));
        }
    }
    (built, started.elapsed())
}

fn all_samples(result: &WindowResult) -> impl Iterator<Item = &OpSample> {
    result.clients.iter().flat_map(|c| c.samples.iter())
}

/// Unmeasured set-ups until `budget` is spent. A process that starts
/// on an idle box runs at about half speed for its first second or two
/// (measured), which would otherwise land on the first timings.
fn spin_up(w: &Workload, budget: Duration) {
    let started = Instant::now();
    while started.elapsed() < budget {
        std::hint::black_box(set_up(w));
    }
}

/// The end-to-end run: repeated set-up, then one untraced window.
pub fn end_to_end(w: &Workload, seed: u64, seconds: u64) -> Outcome {
    let setup_budget = Duration::from_secs(seconds).mul_f64(SETUP_MIN_SHARE);
    spin_up(w, setup_budget);
    let mut setups = Vec::new();
    let started = Instant::now();
    let built = loop {
        // Calibrated like every other timing: the probe runs right
        // before and right after, and their mean is the machine's speed.
        let before = median_ns(Duration::ZERO, probe);
        let (built, took) = set_up(w);
        let factor = (before + median_ns(Duration::ZERO, probe)) / 2.0 / PROBE_NOMINAL_NS;
        setups.push(took.as_secs_f64() / factor);
        let enough = setups.len() >= SETUP_MIN_REPS && started.elapsed() >= setup_budget;
        if enough || setups.len() >= SETUP_MAX_REPS {
            break built;
        }
    };
    let result = run_window(&built.engine, w, w.clients, seed, Duration::from_secs(seconds));

    let attempted = all_samples(&result).count() as u64;
    let failed: u64 = result.clients.iter().map(|c| c.failed).sum();
    let window = Calibrated::of(&result);
    let latencies = window.latencies();
    let rendered_bytes: u64 = result.clients.iter().map(|c| c.prefix.rendered_bytes).sum();
    let rendered_instances: u64 = result.clients.iter().map(|c| c.prefix.rendered_instances).sum();
    let values = [
        ("setup_s", median(&mut setups)),
        ("query_p50_us", percentile(&latencies, 0.5) as f64 / 1e3),
        ("queries_per_s", window.rate(|_| 1.0)),
        ("instances_per_s", window.rate(|s| s.instances as f64)),
        ("cpu_ms_per_query", window.cpu_ms / window.ops() as f64),
        ("peak_rss_mb", peak_rss_mb()),
        ("output_bytes_per_instance", rendered_bytes as f64 / rendered_instances.max(1) as f64),
    ];
    Outcome {
        attempted,
        failed,
        slowdown: window.slowdown,
        metrics: tabulate(&END_TO_END, &values),
    }
}

fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// What the traced pass has gathered so far.
#[derive(Default)]
struct Tally {
    values: Vec<(&'static str, f64)>,
    attempted: u64,
    failed: u64,
}

/// The traced pass. Three parts share the run's time: an untraced
/// window (engine counters, and the latency the traced ops are
/// compared with), the traced ops (the engine, then the staged replay
/// of the same ops), and the substrates timed directly.
pub fn per_layer(
    w: &Workload,
    seed: u64,
    seconds: u64,
    trace_out: Option<&str>,
) -> Result<Outcome, String> {
    let part = Duration::from_secs(seconds).mul_f64(0.3);
    let micro = Duration::from_secs(seconds).mul_f64(0.015);
    let mut tally = Tally::default();

    spin_up(w, Duration::from_secs(seconds).mul_f64(SETUP_MIN_SHARE));
    let (untraced_p50_us, slowdown) = untraced_part(w, seed, part, &mut tally);
    let reference = traced_part(w, seed, part, untraced_p50_us, trace_out, &mut tally)?;
    layers::substrates(w, micro, &mut tally.values);
    layers::serializers(w, &reference, micro, &mut tally.values);
    layers::mapping_module(w, micro, &mut tally.values);

    let Tally { mut values, attempted, failed } = tally;
    values.push(("failed_ratio", ratio(failed as f64, attempted as f64)));
    Ok(Outcome { attempted, failed, slowdown, metrics: tabulate(&PER_LAYER, &values) })
}

/// Part one: the workload as the end-to-end run drives it, read for
/// what the engine's own counters and the virtual clock say. Returns
/// the raw median latency and the machine's slowdown.
fn untraced_part(w: &Workload, seed: u64, part: Duration, tally: &mut Tally) -> (f64, f64) {
    let values = &mut tally.values;
    let (built, _) = set_up(w);
    let mappings: usize = w.sources.iter().map(|s| s.rules.len()).sum();
    values.push(("register_per_s", mappings as f64 / built.register.as_secs_f64()));
    let result = run_window(&built.engine, w, w.clients, seed, part);
    let ops = all_samples(&result).count();
    tally.attempted += ops as u64;
    tally.failed += result.clients.iter().map(|c| c.failed).sum::<u64>();
    let window = Calibrated::of(&result);
    values.push(("machine.slowdown_ratio", window.slowdown));
    // The tail is calibrated like the end-to-end timings, but spread
    // 9–14 % over ten runs where those spread 1–3 %: too wide for a
    // bound, so it is reported here, without one.
    values.push(("query_p95_us", percentile(&window.latencies(), TAIL) as f64 / 1e3));
    // Per-layer times are raw (they are read as shares of this pass),
    // so the latency the traced ops are compared with is raw too.
    let mut raw: Vec<u64> = all_samples(&result).map(|s| s.latency_ns as u64).collect();
    raw.sort_unstable();
    let untraced_p50_us = percentile(&raw, 0.5) as f64 / 1e3;

    let fresh: Vec<&OpSample> = all_samples(&result).filter(|s| !s.replay).collect();
    let replays: Vec<u64> =
        all_samples(&result).filter(|s| s.replay).map(|s| s.latency_ns as u64).collect();
    let refreshes: Vec<u64> =
        fresh.iter().filter(|s| s.view_hits > 0).map(|s| s.latency_ns as u64).collect();
    let plan_hits = fresh.iter().filter(|s| s.plan_hit).count();
    let view_hits: u64 = fresh.iter().map(|s| s.view_hits as u64).sum();
    values.push(("engine.plan_cache_hit_ratio", ratio(plan_hits as f64, fresh.len() as f64)));
    values.push(("engine.result_cache_hit_ratio", ratio(replays.len() as f64, ops as f64)));
    values.push(("engine.replay_us", median_u64(&replays) / 1e3));
    let slices_read = (fresh.len() * w.view_slices_per_query) as f64;
    values.push(("view.hit_ratio", ratio(view_hits as f64, slices_read)));
    values.push(("view.refresh_us", median_u64(&refreshes) / 1e3));
    let mutate_ns: Vec<u64> =
        result.clients.iter().flat_map(|c| c.mutate_ns.iter().copied()).collect();
    values.push(("mutate_p50_us", median_u64(&mutate_ns) / 1e3));

    let prefix_sum = |f: fn(&crate::workload::Prefix) -> u64| -> f64 {
        result.clients.iter().map(|c| f(&c.prefix)).sum::<u64>() as f64
    };
    let prefix_ops = prefix_sum(|p| p.ops);
    values.push(("round_trips_per_query", ratio(prefix_sum(|p| p.round_trips), prefix_ops)));
    values.push(("wire_bytes_per_query", ratio(prefix_sum(|p| p.wire_bytes), prefix_ops)));
    let simulated: Vec<u64> =
        result.clients.iter().flat_map(|c| c.prefix.simulated_us.iter().copied()).collect();
    values.push(("sim_makespan_ms", median_u64(&simulated) / 1e3));
    values.push((
        "dispatch.sim_speedup",
        ratio(prefix_sum(|p| p.simulated_serial_us), simulated.iter().sum::<u64>() as f64),
    ));
    // Only a workload with several clients has a scaling to report:
    // the same engine, driven by one client, is the base.
    let scaling = if w.clients > 1 {
        let solo = run_window(&built.engine, w, 1, seed, part / 2);
        tally.attempted += all_samples(&solo).count() as u64;
        tally.failed += solo.clients[0].failed;
        ratio(window.rate(|_| 1.0), Calibrated::of(&solo).rate(|_| 1.0))
    } else {
        0.0
    };
    values.push(("dispatch.client_scaling", scaling));
    (untraced_p50_us, window.slowdown)
}

/// Part two: a fresh engine, op by op under a root span each; then its
/// twin replays the same ops stage by stage. The two loops run one
/// after the other, not interleaved, so each sees the caches it would
/// see on its own and the engine's root spans compare fairly with the
/// untraced latency. Returns the first replayed answer.
fn traced_part(
    w: &Workload,
    seed: u64,
    part: Duration,
    untraced_p50_us: f64,
    trace_out: Option<&str>,
    tally: &mut Tally,
) -> Result<InstanceSet, String> {
    let (built, _) = set_up(w);
    let twin = trace::build_twin(w);
    let mut tracer = Tracer::new();
    let query_of = |op: u32| &w.queries[(WARMUP_OPS + op as usize) % w.queries.len()];
    let mut engine_ops = 0u32;
    let started = Instant::now();
    while started.elapsed() < part / 2 {
        let query = query_of(engine_ops);
        engine_ops += 1;
        tracer.at_query(engine_ops);
        let outcome = tracer.span(ENGINE, |_| {
            let outcome = built.engine.query(&query.text);
            if let (Ok(o), Some(format)) = (&outcome, w.render) {
                std::hint::black_box(o.render(built.engine.ontology(), format));
            }
            outcome
        });
        let expect = w.oracle.expect(query);
        if !outcome
            .is_ok_and(|o| o.errors().is_empty() && observed(o.individuals().iter()) == expect)
        {
            tally.failed += 1;
            eprintln!("FAILED traced {} seed {seed} query {:?}", w.name, query.text);
        }
    }
    let mut reference = None;
    let (mut traced_ops, mut instances, mut extracted) = (0u32, 0u64, 0u64);
    let started = Instant::now();
    while traced_ops < engine_ops && started.elapsed() < part / 2 {
        let query = query_of(traced_ops);
        traced_ops += 1;
        tracer.at_query(traced_ops);
        let (set, values_extracted) = trace::staged_op(&mut tracer, w, &twin, &query.text);
        instances += set.individuals.len() as u64;
        extracted += values_extracted as u64;
        if observed(set.individuals.iter()) != w.oracle.expect(query) {
            tally.failed += 1;
            eprintln!("FAILED staged {} seed {seed} query {:?}", w.name, query.text);
        }
        reference.get_or_insert(set);
    }
    tally.attempted += (engine_ops + traced_ops) as u64;
    if let Some(path) = trace_out {
        tracer.write_jsonl(path).map_err(|e| format!("writing {path}: {e}"))?;
    }

    let values = &mut tally.values;
    let by_name = trace::self_time_by_name(&tracer.spans);
    let per_op_ns = |name: &str| -> f64 {
        by_name.get(name).map_or(0.0, |ops| median_u64(&ops.values().copied().collect::<Vec<_>>()))
    };
    let total_ns =
        |name: &str| -> f64 { by_name.get(name).map_or(0, |ops| ops.values().sum::<u64>()) as f64 };
    for (metric, span) in [
        ("query.normalize_ns", "query.normalize"),
        ("query.parse_ns", "query.parse"),
        ("query.plan_ns", "query.plan"),
    ] {
        values.push((metric, per_op_ns(span)));
    }
    values.push(("mapping.obtain_schemas_us", per_op_ns("mapping.obtain_schemas") / 1e3));
    let extract_spans = ["extract.sql", "extract.xpath", "extract.webl", "extract.regex"];
    for (metric, span) in
        ["extract.sql_us", "extract.xpath_us", "extract.webl_us", "extract.regex_us"]
            .into_iter()
            .zip(extract_spans)
    {
        values.push((metric, per_op_ns(span) / 1e3));
    }
    let extract_total_ns: f64 = extract_spans.iter().map(|s| total_ns(s)).sum();
    values.push(("extract.values_per_s", ratio(extracted as f64, extract_total_ns / 1e9)));
    values.push(("instance.generate_us", per_op_ns("instance.generate") / 1e3));
    values.push((
        "instance.generate_ns_per_instance",
        ratio(total_ns("instance.generate"), instances as f64),
    ));
    let render_us = per_op_ns("instance.render") / 1e3;
    let rendered_as = |format: OutputFormat| if w.render == Some(format) { render_us } else { 0.0 };
    values.push(("instance.render_rdfxml_us", rendered_as(OutputFormat::OwlRdfXml)));
    values.push(("instance.render_turtle_us", rendered_as(OutputFormat::Turtle)));

    // Per op: what the stages add up to, against the engine's root span.
    let mut stage_sums: Vec<f64> = Vec::new();
    let mut coverage: Vec<f64> = Vec::new();
    for (op, engine) in by_name[ENGINE].iter().take(traced_ops as usize) {
        let stages: u64 = by_name
            .iter()
            .filter(|(name, _)| **name != ENGINE && **name != STAGED)
            .filter_map(|(_, ops)| ops.get(op))
            .sum();
        stage_sums.push(stages as f64);
        coverage.push(ratio(stages as f64, *engine as f64));
    }
    let engine_us = per_op_ns(ENGINE) / 1e3;
    values.push(("trace.coverage_ratio", median(&mut coverage)));
    values.push(("trace.overhead_ratio", ratio(engine_us, untraced_p50_us)));
    values.push(("trace.ops", traced_ops as f64));
    values.push(("trace.engine_op_us", engine_us));
    values.push(("dispatch.overhead_us", engine_us - median(&mut stage_sums) / 1e3));
    reference.ok_or_else(|| "the traced part ran no op".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::WORKLOADS;

    #[test]
    fn names_and_units_fit_the_result_schema() {
        let name_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(name_ok(name), "{name}");
            assert!(unit_ok(unit), "{name}: {unit}");
            assert!(seen.insert(*name), "{name} is used twice");
        }
        for w in WORKLOADS {
            assert!(name_ok(w) && seen.insert(w), "{w}");
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics_and_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string())
                .collect()
        };
        let listed = |table: &[(&str, &str)]| -> Vec<String> {
            table.iter().map(|(n, _)| n.to_string()).collect()
        };
        assert_eq!(names("end_to_end"), listed(&END_TO_END));
        assert_eq!(names("per_layer"), listed(&PER_LAYER));
        assert_eq!(names("workloads"), WORKLOADS);
        for (key, table) in [("end_to_end", &END_TO_END[..]), ("per_layer", &PER_LAYER[..])] {
            for (m, (name, unit)) in doc.get(key).and_then(Json::as_arr).unwrap().iter().zip(table)
            {
                assert_eq!(m.get("unit").and_then(Json::as_str), Some(*unit), "{name}");
            }
        }
    }

    #[test]
    fn result_line_round_trips() {
        let outcome = Outcome {
            attempted: 812,
            failed: 0,
            slowdown: 1.02,
            metrics: vec![("query_p50_us", "us", 18503.127), ("setup_s", "s", 0.004217)],
        };
        let line = outcome.to_json().render();
        let back = Json::parse(&line).unwrap();
        assert_eq!(back, outcome.to_json());
        assert_eq!(back.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(back.get("attempted").and_then(Json::as_f64), Some(812.0));
        let p50 = back.get("metrics").and_then(|m| m.get("query_p50_us")).unwrap();
        assert_eq!(p50.get("value").and_then(Json::as_f64), Some(18503.127));
        assert_eq!(p50.get("unit").and_then(Json::as_str), Some("us"));
        let Json::Obj(members) = back else { panic!("the result line is an object") };
        let keys: Vec<&String> = members.keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    }
}
