//! Prints the experiment record of EXPERIMENTS.md and runs the CI gates.
//!
//! Run with: `cargo run --release -p s2s-bench --bin experiments`
//!
//! Without arguments it prints the record ([`s2s_bench::record`]): each
//! section is an experiment id (E1–E17), the parameters swept and what
//! they produced — counts, bytes and simulated network time, never the
//! wall clock. The record is deterministic, and
//! `crates/bench/tests/golden/experiments.txt` pins it byte for byte
//! (`cargo test -p s2s-bench --test golden_experiments`); redirect this
//! output there to re-pin it. Wall-clock cost is measured by the
//! `benchmark/` package.
//!
//! Observability modes and gates (see `--help`):
//!
//! * `--trace` — run a healthy and a degraded query with tracing on and
//!   print the span tree plus the JSONL dump of each.
//! * `--metrics` — run a short workload with the global metrics
//!   registry enabled and print the Prometheus-style text snapshot.
//! * `--smoke-audit <dir>` — short deterministic healthy run plus one
//!   mutation round on a views engine; writes `trace.jsonl` and
//!   `metrics.prom` into `<dir>` and self-validates both exports (the
//!   view metrics must equal the outcomes' summed stats, and every
//!   series must be a name of `s2s_obs::names`). Exits non-zero on any
//!   violation.
//! * `--throughput-smoke <dir>` — small multi-client throughput run
//!   (4 clients × 16 queries on one shared, paced engine); writes
//!   `e13.json` into `<dir>` and exits non-zero on any cross-thread
//!   result mismatch, degraded answer or zero throughput.
//! * `--overload-smoke <dir>` — open-loop overload run at 1× and 4×
//!   capacity with admission control + deadline budgets, plus an
//!   unprotected 4× baseline; writes `e14.json` into `<dir>` and exits
//!   non-zero if shedding fails to bound p99 within the deadline
//!   budget, if goodput collapses below the unprotected baseline, or
//!   if the unprotected baseline fails to melt down.
//! * `--reactor-smoke <dir>` — 1000 clients multiplexed on one OS
//!   thread by the harness's virtual-time event loop, each issuing one
//!   cold query; writes `e13.json` into `<dir>` and exits non-zero on any
//!   divergence from the serial baseline.
//!
//! The last three read the wall clock ([`s2s_bench::wall`]); the E15,
//! E16 and E17 acceptance bars are asserted inside the record itself.
//!
//! * `--conform-fuzz` — deterministic differential fuzzing: generated
//!   scenarios run through the serial, batched, replay, pooled,
//!   reactor, and pushdown execution paths and every oracle in
//!   `s2s-conform`. Options:
//!   `--budget-ms <N>` (wall-clock budget, default 10000),
//!   `--seed <S>` (integer or any string, e.g. a git SHA; hashed —
//!   the derived u64 is printed and embedded in shrunk artifacts),
//!   `--out <dir>` (where shrunk failing cases are written),
//!   `--replay <file>` (check one corpus case file instead of fuzzing).
//!   Exits non-zero on any divergence (the CI conformance gate).

use std::sync::Arc;

use s2s_bench::wall::*;
use s2s_bench::*;
use s2s_core::extract::Strategy;
use s2s_core::middleware::QueryStats;
use s2s_core::source::Connection;
use s2s_core::S2s;
use s2s_netsim::{BreakerConfig, ChangeKind, CostModel, FailureModel, RetryPolicy, SimDuration};

/// A smoke gate: runs a deterministic workload, writes its artifacts
/// into the given directory and returns the violations it found.
type SmokeFn = fn(&str) -> Result<(), Vec<String>>;

/// The CI `smoke` matrix. `--<mode> DIR` prints `<mode> OK`, or one
/// `<mode> FAIL: …` line per violation and exits 1; the third column is
/// what `usage()` says about the mode.
const SMOKE_MODES: [(&str, SmokeFn, &str); 4] = [
    (
        "smoke-audit",
        smoke_audit,
        "deterministic run plus a views mutation round; writes trace.jsonl and metrics.prom into \
         DIR and validates both exports, view metrics against the summed stats and every name \
         against s2s_obs::names",
    ),
    (
        "throughput-smoke",
        throughput_smoke,
        "4 clients × 16 queries on one shared engine; writes e13.json into DIR; fails on result \
         mismatch or zero throughput",
    ),
    (
        "overload-smoke",
        overload_smoke,
        "open-loop overload at 1× and 4× capacity with shedding on, plus an unprotected 4× \
         baseline; writes e14.json into DIR; fails if shedding does not bound p99 or goodput \
         collapses below the unprotected baseline",
    ),
    (
        "reactor-smoke",
        reactor_smoke,
        "1000 clients multiplexed on one thread over virtual time; writes e13.json \
         into DIR; fails on any answer diverging from the serial baseline",
    ),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = args.first().map(String::as_str);
    let smoke = flag.and_then(|f| f.strip_prefix("--"));
    if let Some((mode, run, _)) = SMOKE_MODES.iter().find(|(mode, ..)| smoke == Some(*mode)) {
        let dir = args.get(1).map(String::as_str).unwrap_or_else(|| {
            eprintln!("--{mode} requires an output directory argument");
            std::process::exit(2);
        });
        if let Err(violations) = run(dir) {
            for v in &violations {
                eprintln!("{mode} FAIL: {v}");
            }
            std::process::exit(1);
        }
        println!("{mode} OK");
        return;
    }
    match flag {
        None => print!("{}", record::run().text),
        Some("--trace") => trace_mode(),
        Some("--metrics") => metrics_mode(),
        Some("--conform-fuzz") => {
            if let Err(violations) = conform_fuzz(&args[1..]) {
                for v in &violations {
                    eprintln!("conform-fuzz FAIL: {v}");
                }
                std::process::exit(1);
            }
        }
        Some("--help" | "-h") => usage(),
        Some(other) => {
            eprintln!("unknown argument: {other}\n");
            usage();
            std::process::exit(2);
        }
    }
}

fn usage() {
    println!("experiments — S2S experiment record, CI gates and observability modes");
    println!();
    println!("USAGE:");
    println!("  experiments                    print the deterministic E1–E17 record");
    println!("  experiments --trace            print span trees + JSONL for a healthy");
    println!("                                 and a degraded (breaker-open) query");
    println!("  experiments --metrics          print a Prometheus-style metrics");
    println!("                                 snapshot after a short workload");
    for (mode, _, help) in SMOKE_MODES {
        println!("  experiments --{mode} DIR\n      {help}");
    }
    println!("  experiments --conform-fuzz [--budget-ms N] [--seed S] [--out DIR]");
    println!("                                 differential fuzzing across the serial,");
    println!("                                 batched, replay, pooled, and reactor paths;");
    println!("                                 the seed may be any string (a git SHA is");
    println!("                                 hashed); shrunk failing cases go to DIR");
    println!("  experiments --conform-fuzz --replay FILE");
    println!("                                 re-check one corpus case file");
}

/// The CI conformance gate: budgeted deterministic differential fuzzing
/// (or single-case replay) via `s2s-conform`.
fn conform_fuzz(args: &[String]) -> Result<(), Vec<String>> {
    let mut budget_ms: u64 = 10_000;
    let mut seed_str = String::from("0");
    let mut out_dir: Option<String> = None;
    let mut replay: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next().cloned().unwrap_or_else(|| {
                eprintln!("{flag} requires a value");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--budget-ms" => {
                let v = value("--budget-ms");
                budget_ms = v.parse().unwrap_or_else(|_| {
                    eprintln!("--budget-ms wants an integer, got {v:?}");
                    std::process::exit(2);
                });
            }
            "--seed" => seed_str = value("--seed"),
            "--out" => out_dir = Some(value("--out")),
            "--replay" => replay = Some(value("--replay")),
            other => {
                eprintln!("unknown --conform-fuzz option: {other}\n");
                usage();
                std::process::exit(2);
            }
        }
    }

    if let Some(path) = replay {
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("cannot read case file {path}: {e}");
            std::process::exit(2);
        });
        let scenario = s2s_conform::from_case(&text).unwrap_or_else(|e| {
            eprintln!("cannot parse case file {path}: {e}");
            std::process::exit(2);
        });
        let violations = s2s_conform::check_scenario(&scenario);
        if violations.is_empty() {
            println!("conform-fuzz replay OK: {path} (seed {})", scenario.seed);
            return Ok(());
        }
        return Err(violations.iter().map(|v| format!("{path}: {v}")).collect());
    }

    let base_seed = s2s_conform::seed_from_str(&seed_str);
    println!(
        "conform-fuzz: seed {seed_str:?} → 0x{base_seed:016x}, budget {budget_ms} ms, \
         floor {} scenarios",
        s2s_conform::runner::MIN_SCENARIOS
    );
    let started = std::time::Instant::now();
    let outcome = s2s_conform::runner::fuzz_with_progress(
        base_seed,
        budget_ms,
        s2s_conform::runner::MIN_SCENARIOS,
        |index, run, failures| {
            if run % 500 == 0 {
                println!("  … scenario #{index}: {run} run, {failures} failing");
            }
        },
    );
    println!(
        "conform-fuzz: {} scenarios in {} ms, {} divergence(s)",
        outcome.scenarios,
        started.elapsed().as_millis(),
        outcome.failures.len()
    );

    if outcome.clean() {
        println!("conform-fuzz OK");
        return Ok(());
    }
    let mut violations = Vec::new();
    for failure in &outcome.failures {
        // Embed the seed derivation so the artifact alone is enough to
        // replay the red run: `#` lines are comments to the parser.
        let mut case = s2s_conform::to_case(&failure.shrunk);
        case.push_str(&format!(
            "# fuzz run: --seed {seed_str:?} -> base 0x{base_seed:016x}, scenario index {}\n\
             # scenario seed: {} (0x{:016x})\n\
             # replay: experiments --conform-fuzz --replay <this file>\n\
             # or rerun: experiments --conform-fuzz --seed 0x{base_seed:016x}\n",
            failure.index, failure.shrunk.seed, failure.shrunk.seed
        ));
        let name = format!("shrunk-{:016x}-{}.case", base_seed, failure.index);
        if let Some(dir) = &out_dir {
            std::fs::create_dir_all(dir)
                .unwrap_or_else(|e| panic!("cannot create conform out dir {dir}: {e}"));
            let path = format!("{dir}/{name}");
            std::fs::write(&path, &case).expect("write shrunk case");
            println!("wrote shrunk repro to {path}");
        } else {
            println!("shrunk repro ({name}):\n{case}");
        }
        for v in &failure.violations {
            violations
                .push(format!("scenario #{} (seed {}): {v}", failure.index, failure.shrunk.seed));
        }
    }
    Err(violations)
}

/// A deployment where one of two sources is hard-down and the breaker
/// trips after a single failure: across two queries on the engine, the
/// `DOWN` batch shows the full degradation ladder (retried and failed on
/// the first, breaker-rejected on the second) while `GOOD` stays clean.
/// One exchange at a time in the planner's (estimate desc, source id) order, so
/// the breaker-state sequencing is a function of the plan.
fn degraded_deploy() -> S2s {
    let policy = s2s_core::ResiliencePolicy::default()
        .with_retry(RetryPolicy::attempts(2).with_backoff(
            SimDuration::from_millis(5),
            2,
            SimDuration::from_millis(50),
        ))
        .with_breaker(BreakerConfig::new(1, SimDuration::from_millis(60_000)));
    let mut s2s = S2s::new(ontology())
        .with_strategy(Strategy::Parallel { workers: 1 })
        .with_resilience(policy)
        .with_tracing();
    s2s.register_remote_source(
        "GOOD",
        Connection::Database { db: Arc::new(catalog_db(&records(5, 42))) },
        CostModel::wan(),
        FailureModel::reliable(),
    )
    .unwrap();
    map_db(&mut s2s, "GOOD");
    s2s.register_remote_source(
        "DOWN",
        Connection::Database { db: Arc::new(catalog_db(&records(5, 43))) },
        CostModel::wan(),
        FailureModel::unreachable(),
    )
    .unwrap();
    map_db(&mut s2s, "DOWN");
    s2s
}

fn trace_mode() {
    println!("## healthy query (batched, 4 sources × 3 attributes, WAN)");
    let s2s = deploy_wide(4, 3, CostModel::wan(), Strategy::Parallel { workers: 4 }).with_tracing();
    let outcome = s2s.query("SELECT product").unwrap();
    let trace = outcome.trace.as_ref().expect("tracing enabled");
    println!("{}", s2s_obs::render_tree(trace));
    println!("### JSONL");
    print!("{}", s2s_obs::render_jsonl(trace));

    let s2s = degraded_deploy();
    for run in ["first", "second"] {
        println!("\n## degraded query, {run} on one engine (one source down, breaker threshold 1)");
        let outcome = s2s.query("SELECT watch").unwrap();
        let trace = outcome.trace.as_ref().expect("tracing enabled");
        println!("{}", s2s_obs::render_tree(trace));
        println!("### JSONL");
        print!("{}", s2s_obs::render_jsonl(trace));
        println!(
            "\ncompleteness: {:.3}   failed tasks: {}   breaker rejections: {}",
            outcome.stats.completeness,
            outcome.stats.failed_tasks,
            outcome.source("DOWN").map_or(0, |r| r.breaker_rejections)
        );
    }
}

fn metrics_mode() {
    s2s_obs::set_enabled(true);
    s2s_obs::global().clear();

    // A healthy batched workload, twice (to exercise both caches) …
    let s2s = deploy_wide(8, 4, CostModel::wan(), Strategy::Parallel { workers: 4 });
    let _ = s2s.query("SELECT product").unwrap();
    let _ = s2s.query("SELECT product").unwrap();
    // … plus a flaky one so retry/failure series are non-empty.
    let flaky = deploy_sharded(
        8,
        10,
        CostModel::lan(),
        FailureModel::flaky(0.25),
        Strategy::Parallel { workers: 4 },
    )
    .with_resilience(s2s_core::ResiliencePolicy::default().with_retry(RetryPolicy::attempts(3)));
    let _ = flaky.query("SELECT watch").unwrap();

    print!("{}", s2s_obs::render_prometheus(s2s_obs::global()));
    s2s_obs::set_enabled(false);
}

/// The CI smoke-audit gate: a deterministic healthy run whose exports
/// must be well-formed and whose completeness must be 1.0, plus a views
/// engine through one mutation round, whose view metrics must be the
/// sums of its outcomes' stats; every exported series must be a name of
/// `s2s_obs::names`.
fn smoke_audit(dir: &str) -> Result<(), Vec<String>> {
    let mut violations = Vec::new();

    s2s_obs::set_enabled(true);
    s2s_obs::global().clear();
    let s2s = deploy_wide(6, 3, CostModel::wan(), Strategy::Parallel { workers: 4 }).with_tracing();
    let outcome = s2s.query("SELECT product").unwrap();
    // Cold, then after a price mutation: the price slices refresh, the
    // others advance past the event, one poll per source.
    let views = deploy_wan(8, 42).with_views();
    let mut view_outcomes = vec![views.query("SELECT watch").unwrap()];
    let mut recs = records(8, 42);
    for r in &mut recs {
        r.price += 1.0;
    }
    let db = Connection::Database { db: Arc::new(catalog_db(&recs)) };
    views.mutate_source("DB", db, ChangeKind::RowUpdate, vec!["price".into()]).unwrap();
    view_outcomes.push(views.query("SELECT watch").unwrap());
    let prom = s2s_obs::render_prometheus(s2s_obs::global());
    s2s_obs::set_enabled(false);

    if outcome.stats.completeness < 1.0 {
        violations.push(format!(
            "healthy scenario incomplete: completeness {} < 1.0",
            outcome.stats.completeness
        ));
    }

    let trace = match outcome.trace.as_ref() {
        Some(t) => t,
        None => {
            violations.push("tracing enabled but no trace attached".into());
            return Err(violations);
        }
    };
    let jsonl = s2s_obs::render_jsonl(trace);

    std::fs::create_dir_all(dir)
        .unwrap_or_else(|e| panic!("cannot create smoke-audit dir {dir}: {e}"));
    let trace_path = format!("{dir}/trace.jsonl");
    let prom_path = format!("{dir}/metrics.prom");
    std::fs::write(&trace_path, &jsonl).expect("write trace.jsonl");
    std::fs::write(&prom_path, &prom).expect("write metrics.prom");

    // The JSONL export must parse back and re-render byte-identically.
    match s2s_obs::parse_jsonl(&jsonl) {
        Ok(records) => {
            if s2s_obs::render_jsonl_records(&records) != jsonl {
                violations.push("JSONL round-trip not byte-identical".into());
            }
        }
        Err(e) => violations.push(format!("trace.jsonl does not parse: {e}")),
    }
    // The Prometheus snapshot must parse and be non-trivial, and its
    // view metrics are the only engine-wide view account: each must be
    // its outcomes' sum, and the round must have moved it.
    match s2s_obs::parse_prometheus(&prom) {
        Ok(samples) => {
            if samples.is_empty() {
                violations.push("metrics.prom parsed to zero samples".into());
            }
            let sum = |of: fn(&QueryStats) -> u64| view_outcomes.iter().map(|o| of(&o.stats)).sum();
            let sums: [(&str, u64); 3] = [
                (s2s_obs::names::VIEW_HITS_TOTAL, sum(|s| s.view_hits)),
                (s2s_obs::names::VIEW_REFRESHES_TOTAL, sum(|s| s.view_refreshes)),
                (s2s_obs::names::FEED_POLLS_TOTAL, sum(|s| s.feed_polls)),
            ];
            for (name, summed) in sums {
                let metric = samples.iter().find(|m| m.name == name).map(|m| m.value);
                if summed == 0 || metric != Some(summed as f64) {
                    violations.push(format!("{name} {metric:?} != outcomes' sum {summed}"));
                }
            }
            // Every series is a named metric: no emitter spells its own.
            for sample in &samples {
                if !is_named_metric(&sample.name) {
                    violations.push(format!("{} is not in s2s_obs::names::ALL", sample.name));
                }
            }
        }
        Err(e) => violations.push(format!("metrics.prom does not parse: {e}")),
    }
    // The root span must agree with QueryStats.
    let root = &trace.root;
    match root.get_attr("completeness").and_then(|v| v.parse::<f64>().ok()) {
        Some(c) if c == outcome.stats.completeness => {}
        other => violations.push(format!(
            "root span completeness {:?} != stats.completeness {}",
            other, outcome.stats.completeness
        )),
    }

    println!(
        "smoke-audit: {} spans → {trace_path}; {} metric lines → {prom_path}; completeness {}",
        trace.spans().len(),
        prom.lines().count(),
        outcome.stats.completeness
    );
    if violations.is_empty() {
        Ok(())
    } else {
        Err(violations)
    }
}

/// Whether a Prometheus sample name is one of `s2s_obs::names`: a
/// constant of [`s2s_obs::names::ALL`] (a histogram's with the suffix
/// of its series) or a tenant backlog gauge.
fn is_named_metric(sample: &str) -> bool {
    use s2s_obs::names::{ALL, TENANT_BACKLOG_PREFIX};
    let series = ["_bucket", "_sum", "_count", "_p50", "_p90", "_p99"];
    let base = series.iter().find_map(|s| sample.strip_suffix(s));
    ALL.contains(&sample)
        || base.is_some_and(|b| ALL.contains(&b))
        || sample.starts_with(TENANT_BACKLOG_PREFIX)
}

/// Writes one smoke report into `dir` and returns its path.
fn write_report(dir: &str, name: &str, json: &str) -> String {
    std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("cannot create smoke dir {dir}: {e}"));
    let path = format!("{dir}/{name}");
    std::fs::write(&path, json).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    path
}

/// The CI concurrency gate: 4 client threads share one engine and replay
/// a warm (repeated-text) workload; every answer must match the serial
/// baseline and the run must make forward progress.
fn throughput_smoke(dir: &str) -> Result<(), Vec<String>> {
    let mut violations = Vec::new();

    let workload = warm_workload(4, 16, 64);
    let reference = deploy_paced(12, 42, 0, Strategy::Parallel { workers: 1 }, false);
    let baseline = serial_baseline(&reference, &workload);
    // A light pace keeps the gate fast while still forcing the clients
    // to genuinely overlap their waits.
    let engine = deploy_paced(12, 42, 60, Strategy::Parallel { workers: 16 }, true);
    let report = run_throughput(&engine, &workload, &baseline);
    let json_path = write_report(dir, "e13.json", &report.to_json());

    if report.mismatches > 0 {
        violations.push(format!(
            "{} of {} answers diverged from the serial baseline",
            report.mismatches, report.queries
        ));
    }
    if report.qps <= 0.0 {
        violations.push(format!("throughput not positive: {} queries/sec", report.qps));
    }
    if report.min_completeness < 1.0 {
        violations.push(format!(
            "degraded answer under concurrency: min completeness {} < 1.0",
            report.min_completeness
        ));
    }

    println!(
        "throughput-smoke: {} clients × {} queries → {:.0} qps, {} mismatches, \
         result-cache {}/{} → {json_path}",
        report.clients,
        report.queries,
        report.qps,
        report.mismatches,
        report.result_cache.hits,
        report.result_cache.hits + report.result_cache.misses,
    );
    if violations.is_empty() {
        Ok(())
    } else {
        Err(violations)
    }
}

/// The CI reactor gate: 1000 clients multiplexed on one OS thread by
/// `run_throughput_reactor`'s event loop, each issuing one distinct (cold)
/// query — a client count the thread-per-client runner cannot reach.
/// Every answer must match the serial baseline and be complete.
fn reactor_smoke(dir: &str) -> Result<(), Vec<String>> {
    let mut violations = Vec::new();

    let clients = 1_000;
    let workload = cold_workload(clients, 1);
    let reference = deploy_paced(12, 42, 0, Strategy::Parallel { workers: 1 }, false);
    let baseline = serial_baseline(&reference, &workload);
    // Same light pace as the throughput gate: the wire waits are real
    // enough that only overlap keeps the run inside the CI budget.
    let engine = deploy_paced(12, 42, 60, Strategy::Reactor, true);
    let report = run_throughput_reactor(&engine, &workload, &baseline);
    let json_path = write_report(dir, "e13.json", &report.to_json());

    if report.queries != clients {
        violations.push(format!("expected {clients} answers, got {}", report.queries));
    }
    if report.mismatches > 0 {
        violations.push(format!(
            "{} of {} reactor answers diverged from the serial baseline",
            report.mismatches, report.queries
        ));
    }
    if report.qps <= 0.0 {
        violations.push(format!("throughput not positive: {} queries/sec", report.qps));
    }
    if report.min_completeness < 1.0 {
        violations.push(format!(
            "degraded answer under the reactor: min completeness {} < 1.0",
            report.min_completeness
        ));
    }

    println!(
        "reactor-smoke: {} clients on one thread → {:.0} qps, {} mismatches, \
         wall {} ms → {json_path}",
        report.clients,
        report.qps,
        report.mismatches,
        report.wall.as_millis(),
    );
    if violations.is_empty() {
        Ok(())
    } else {
        Err(violations)
    }
}

/// E14 pacing: service times long enough for genuine queuing, a run
/// short enough for CI.
const E14_PACE: u64 = 150;

/// The E14 overload run: two well-behaved tenants and one misbehaving
/// neighbour submitting 60% of the traffic.
fn e14_config(load: f64, shedding: bool) -> OverloadConfig {
    OverloadConfig {
        load,
        window: std::time::Duration::from_millis(250),
        deadline: SimDuration::from_millis(150),
        // One more permit than the lanes strictly fit (3 queries × 4
        // exchanges > 8 lanes) keeps the lanes saturated while a
        // permit turns over, so admitted goodput tracks lane capacity.
        permits: 3,
        shedding,
        tenants: vec![
            TenantSpec { name: "acme", share: 1 },
            TenantSpec { name: "beta", share: 1 },
            TenantSpec { name: "mallory", share: 3 },
        ],
    }
}

/// The CI overload gate: a short open-loop sweep proving that admission
/// control + deadline budgets keep tail latency bounded and goodput
/// near capacity at 4× load, while the unprotected engine's queue melts
/// down. Writes `e14.json` into `dir`.
fn overload_smoke(dir: &str) -> Result<(), Vec<String>> {
    let mut violations = Vec::new();

    let shed_1x = run_overload(&e14_config(1.0, true), E14_PACE, 8);
    let shed_4x = run_overload(&e14_config(4.0, true), E14_PACE, 8);
    let open_4x = run_overload(&e14_config(4.0, false), E14_PACE, 8);
    let json =
        format!("{{\"runs\":[{},{},{}]}}", shed_1x.to_json(), shed_4x.to_json(), open_4x.to_json());
    let json_path = write_report(dir, "e14.json", &json);

    // The deadline budget, read as a wall bound: simulated time is
    // paced well below real time, so a served query that stayed within
    // its simulated budget has an order of magnitude of slack here.
    let budget_ms = 150.0;
    if shed_4x.served == 0 {
        violations.push("shedding run served no queries at 4× load".to_string());
    }
    if shed_4x.shed == 0 {
        violations.push("no query was shed at 4× load".to_string());
    }
    if shed_4x.p99_ms > budget_ms {
        violations.push(format!(
            "shed-enabled p99 {:.1} ms exceeds the {budget_ms:.0} ms deadline budget",
            shed_4x.p99_ms
        ));
    }
    if shed_4x.goodput_qps < 0.7 * open_4x.goodput_qps {
        violations.push(format!(
            "goodput collapsed below the unprotected baseline: {:.0} vs {:.0} queries/sec",
            shed_4x.goodput_qps, open_4x.goodput_qps
        ));
    }
    if open_4x.p99_ms < 1.5 * shed_4x.p99_ms {
        violations.push(format!(
            "unprotected baseline did not melt down: p99 {:.1} ms vs {:.1} ms with shedding",
            open_4x.p99_ms, shed_4x.p99_ms
        ));
    }

    println!(
        "overload-smoke: 4× load → shed-on p99 {:.1} ms / goodput {:.0} qps \
         ({} served, {} shed), unprotected p99 {:.1} ms → {json_path}",
        shed_4x.p99_ms, shed_4x.goodput_qps, shed_4x.served, shed_4x.shed, open_4x.p99_ms,
    );
    if violations.is_empty() {
        Ok(())
    } else {
        Err(violations)
    }
}
